package pool

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestJobsOrdersResultsByIndex(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16, 64} {
		// Early jobs sleep longest so completion order inverts index
		// order; results must come back in index order anyway.
		n := 40
		out, err := Jobs(workers, n, func(i int) (int, error) {
			time.Sleep(time.Duration(n-i) * 10 * time.Microsecond)
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out) != n {
			t.Fatalf("workers=%d: %d results", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestJobsErrorIsDeterministic(t *testing.T) {
	boom := func(i int) error { return fmt.Errorf("job %d failed", i) }
	for _, workers := range []int{1, 8} {
		var ran atomic.Int64
		_, err := Jobs(workers, 20, func(i int) (int, error) {
			ran.Add(1)
			if i == 7 || i == 3 || i == 15 {
				return 0, boom(i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "job 3 failed" {
			t.Errorf("workers=%d: error %v, want the lowest-indexed job's", workers, err)
		}
		// Per-job error capture: a failure does not cancel the grid.
		if ran.Load() != 20 {
			t.Errorf("workers=%d: %d jobs ran, want all 20", workers, ran.Load())
		}
	}
}

func TestJobsZeroJobs(t *testing.T) {
	out, err := Jobs(4, 0, func(int) (int, error) { return 0, errors.New("never") })
	if err != nil || len(out) != 0 {
		t.Fatalf("empty grid: %v %v", out, err)
	}
}

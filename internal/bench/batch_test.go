package bench

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"

	"mouse/internal/array"
	"mouse/internal/pool"
	"mouse/internal/workload"
)

// TestComputeBatchShapes: the experiment covers every hot workload,
// verifies equivalence inline (zero mismatches), and scales the batch
// to the requested lane count. Small lane count keeps it cheap in the
// regular suite; the full-width throughput claim lives behind the
// MOUSE_BENCH_SMOKE gate.
func TestComputeBatchShapes(t *testing.T) {
	const lanes = 4
	rows, err := ComputeBatch(lanes, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(workload.HotBatches()) {
		t.Fatalf("%d rows, want one per hot workload", len(rows))
	}
	for _, r := range rows {
		hb, err := workload.HotBatchByName(r.Workload)
		if err != nil {
			t.Errorf("row names unknown workload %q", r.Workload)
			continue
		}
		if r.Lanes != lanes || r.SamplesPerBatch != lanes*hb.LaneWidth {
			t.Errorf("%s: lanes %d batch %d, want %d and %d", r.Workload, r.Lanes, r.SamplesPerBatch, lanes, lanes*hb.LaneWidth)
		}
		if r.Mismatches != 0 {
			t.Errorf("%s: %d batched-vs-sequential mismatches", r.Workload, r.Mismatches)
		}
		if r.NsSequential <= 0 || r.NsBatched <= 0 {
			t.Errorf("%s: non-positive timing %g / %g", r.Workload, r.NsSequential, r.NsBatched)
		}
	}
	if _, err := ComputeBatch(0, 0); err == nil {
		t.Error("accepted 0 lanes")
	}
	if _, err := ComputeBatch(array.MaxLanes+1, 0); err == nil {
		t.Error("accepted too many lanes")
	}
}

// TestPrintBatchAndRunBatch: the batch experiment at an explicit lane
// count (the mousebench -batch view) renders its timing columns, its
// report is a schema-valid one-experiment report, and the registry's
// table form carries only deterministic columns.
func TestPrintBatchAndRunBatch(t *testing.T) {
	rep, err := BuildReport("batch", Options{Workers: 1, Lanes: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := PrintTables(&buf, rep, true); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"2 bit-slice lanes", "workload", "speedup", "mismatches"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("table output missing %q", want)
		}
	}
	buf.Reset()
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), Schema) || !strings.Contains(buf.String(), `"batch"`) {
		t.Errorf("JSON output incomplete: %s", buf.String())
	}
	buf.Reset()
	if err := PrintTables(&buf, rep, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "mismatches") || strings.Contains(buf.String(), "speedup") {
		t.Errorf("deterministic table has wrong columns: %s", buf.String())
	}
}

// TestBatchNormalizeIsDeterministic: two batch reports from different
// parallelism normalize to deep-equal — the throughput fields are host
// wall clock and must not leak into the trajectory diff.
func TestBatchNormalizeIsDeterministic(t *testing.T) {
	a, err := BuildReport("batch", Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildReport("batch", Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	a.Normalize()
	b.Normalize()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("normalized batch reports differ: %+v vs %+v", a, b)
	}
	for _, r := range a.Experiments[0].Rows.([]BatchRow) {
		if r.NsSequential != 0 || r.NsBatched != 0 || r.Speedup != 0 {
			t.Errorf("%s: Normalize left timing fields: %+v", r.Workload, r)
		}
	}
}

// TestBatchStress32Workers hammers the batch machinery from a wide
// worker pool — 32 concurrent jobs, each with its own engine pair over
// the shared (read-only) trained models — so `go test -race` covers the
// compile-once caches and the arena reuse under real concurrency.
func TestBatchStress32Workers(t *testing.T) {
	hbs := workload.HotBatches()
	_, err := pool.Jobs(32, 32, func(i int) (struct{}, error) {
		hb := hbs[i%len(hbs)]
		row, err := computeBatchRow(hb, 1+i%array.MaxLanes)
		if err != nil {
			return struct{}{}, err
		}
		if row.Mismatches != 0 {
			t.Errorf("job %d (%s, %d lanes): %d mismatches", i, hb.Name, row.Lanes, row.Mismatches)
		}
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBatchThroughputRegression is the bench-smoke gate (set
// MOUSE_BENCH_SMOKE=1): at full width the bit-sliced engine must beat
// the sequential path by at least 3x per inference on every hot
// workload. The committed BENCH_2.json records the real margin (≥5x);
// the CI floor is lower so shared runners don't flake the gate.
func TestBatchThroughputRegression(t *testing.T) {
	if os.Getenv("MOUSE_BENCH_SMOKE") == "" {
		t.Skip("set MOUSE_BENCH_SMOKE=1 to run the throughput regression gate")
	}
	rows, err := ComputeBatch(array.MaxLanes, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		t.Logf("%s: %.0f ns/inf sequential, %.0f ns/inf batched, %.1fx", r.Workload, r.NsSequential, r.NsBatched, r.Speedup)
		if r.Mismatches != 0 {
			t.Errorf("%s: %d mismatches", r.Workload, r.Mismatches)
		}
		if r.Speedup < 3 {
			t.Errorf("%s: speedup %.2fx below the 3x regression floor", r.Workload, r.Speedup)
		}
	}
}

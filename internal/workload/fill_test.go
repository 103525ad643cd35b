package workload

import (
	"fmt"
	"os"
	"slices"
	"testing"
	"time"

	"mouse/internal/mtj"
)

// The lane-fill rung of the perf ladder: each hot engine's own choice
// against its two forced replays, per sample, at fills on both sides of
// the packed/lane crossover.

// fillEngine is one hot engine's three classify entry points plus its
// dispatch rule.
type fillEngine struct {
	name                string
	auto, packed, lanes func(dst []int, samples [][]int) error
	prefersPacked       func(n int) bool
	samples             func(n int) [][]int
	benchFills          []int
}

// sweep returns batch sizes on both sides of the engine's packed/lane
// crossover, interleaved so consecutive sizes take different paths:
// every size up to capacity when width is 1 (one sample per pass),
// otherwise the column-batch edges, the crossover ±1 column batch and
// capacity.
func (e fillEngine) sweep(t *testing.T, width, capacity int) []int {
	t.Helper()
	last := 0 // largest batch the engine replays packed
	for n := 1; n <= capacity && e.prefersPacked(n); n++ {
		last = n
	}
	var sizes []int
	if width == 1 {
		for n := 1; n <= capacity; n++ {
			sizes = append(sizes, n)
		}
	} else {
		sizes = []int{1, width - 1, width, width + 1, last - width, last, last + 1, last + width, capacity}
	}
	var packed, lanes []int
	for _, n := range sizes {
		if n < 1 || n > capacity || slices.Contains(packed, n) || slices.Contains(lanes, n) {
			continue
		}
		if e.prefersPacked(n) {
			packed = append(packed, n)
		} else {
			lanes = append(lanes, n)
		}
	}
	if len(packed) == 0 || len(lanes) == 0 {
		t.Fatalf("%s: crossover at %d leaves a path unswept (packed %v, lanes %v)", e.name, last, packed, lanes)
	}
	var out []int
	for i := 0; i < len(packed) || i < len(lanes); i++ {
		if i < len(packed) {
			out = append(out, packed[i])
		}
		if i < len(lanes) {
			out = append(out, lanes[len(lanes)-1-i])
		}
	}
	return out
}

func hotFillEngines(tb testing.TB) []fillEngine {
	tb.Helper()
	svmDS, svmMP, err := svmHotModel()
	if err != nil {
		tb.Fatal(err)
	}
	se, err := svmMP.NewBatchEngine(mtj.ModernSTT(), 1024)
	if err != nil {
		tb.Fatal(err)
	}
	bnnDS, net, bnnMP, err := bnnHotModel()
	if err != nil {
		tb.Fatal(err)
	}
	be, err := bnnMP.NewBatchEngine(mtj.ModernSTT(), 1024, net)
	if err != nil {
		tb.Fatal(err)
	}
	return []fillEngine{
		{
			name: "svm-adult", auto: se.ClassifyBatchInto, packed: se.ClassifyPackedInto, lanes: se.ClassifyLanesInto,
			prefersPacked: se.Cost().PreferPacked,
			samples:       func(n int) [][]int { return cycleSamples(svmDS.Test, n) },
			benchFills:    []int{1, 8, 16, 64},
		},
		{
			name: "bnn-hidden16", auto: be.ClassifyBatchInto, packed: be.ClassifyPackedInto, lanes: be.ClassifyLanesInto,
			prefersPacked: func(n int) bool { return be.Cost().PreferPacked(be.Passes(n)) },
			samples:       func(n int) [][]int { return cycleSamples(bnnDS.Test, n) },
			benchFills:    []int{8, 64, 1024, 4096},
		},
	}
}

// BenchmarkHotReplayFill reports ns/sample for the engine's choice
// (auto), the forced packed replay and the forced lane replay.
func BenchmarkHotReplayFill(b *testing.B) {
	for _, e := range hotFillEngines(b) {
		for _, n := range e.benchFills {
			samples := e.samples(n)
			dst := make([]int, n)
			for _, path := range []struct {
				name string
				run  func(dst []int, samples [][]int) error
			}{{"auto", e.auto}, {"packed", e.packed}, {"lanes", e.lanes}} {
				b.Run(fmt.Sprintf("%s/n=%d/%s", e.name, n, path.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if err := path.run(dst, samples); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/sample")
				})
			}
		}
	}
}

// TestReplayFillRegression is the bench-smoke gate (set
// MOUSE_BENCH_SMOKE=1): on a one-sample batch the engine's choice must
// beat the forced lane replay by at least 3x per sample on every hot
// workload. The packed pass measured about 12x on svm-adult; the floor
// absorbs runner noise.
func TestReplayFillRegression(t *testing.T) {
	if os.Getenv("MOUSE_BENCH_SMOKE") == "" {
		t.Skip("set MOUSE_BENCH_SMOKE=1 to run the lane-fill regression gate")
	}
	for _, e := range hotFillEngines(t) {
		samples := e.samples(1)
		dst := make([]int, 1)
		// Best of several short rounds per path, interleaved so drift in
		// host speed hits both alike.
		const rounds, calls = 7, 5
		var auto, lanes []time.Duration
		for r := 0; r < rounds; r++ {
			for _, p := range []struct {
				run func(dst []int, samples [][]int) error
				out *[]time.Duration
			}{{e.auto, &auto}, {e.lanes, &lanes}} {
				start := time.Now()
				for c := 0; c < calls; c++ {
					if err := p.run(dst, samples); err != nil {
						t.Fatal(err)
					}
				}
				*p.out = append(*p.out, time.Since(start)/calls)
			}
		}
		a, l := slices.Min(auto), slices.Min(lanes)
		ratio := float64(l) / float64(a)
		t.Logf("%s: 1 sample: %v engine, %v lane replay, %.1fx", e.name, a, l, ratio)
		if ratio < 3 {
			t.Errorf("%s: engine beats the lane replay by %.2fx at one sample, below the 3x floor", e.name, ratio)
		}
	}
}

// TestHotEnginesAllocFree: after warm-up, classifying into a
// caller-owned slice allocates nothing on either machine.
func TestHotEnginesAllocFree(t *testing.T) {
	for _, e := range hotFillEngines(t) {
		small, large := e.benchFills[0], e.benchFills[len(e.benchFills)-1]
		for _, c := range []struct {
			path string
			n    int
			run  func(dst []int, samples [][]int) error
		}{{"auto", small, e.auto}, {"auto", large, e.auto}, {"packed", small, e.packed}, {"lanes", small, e.lanes}} {
			samples, dst := e.samples(c.n), make([]int, c.n)
			var err error
			allocs := testing.AllocsPerRun(2, func() { err = c.run(dst, samples) })
			if err != nil {
				t.Fatal(err)
			}
			if allocs != 0 {
				t.Errorf("%s n=%d %s: %v allocations per batch", e.name, c.n, c.path, allocs)
			}
		}
	}
}

package bench

import (
	"os"
	"strings"
	"testing"

	"mouse/internal/workload"
)

// TestComputeSegmentShapes: the experiment covers every benchmark,
// verifies stepping-vs-segment equivalence inline (zero mismatches),
// and sweeps the full Fig. 9 power grid. Correctness runs in the
// regular suite; the speedup claim lives behind the MOUSE_BENCH_SMOKE
// gate.
func TestComputeSegmentShapes(t *testing.T) {
	rows, err := ComputeSegment(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(workload.Benchmarks()) {
		t.Fatalf("%d rows, want one per benchmark", len(rows))
	}
	for _, r := range rows {
		if r.Powers != len(Powers()) {
			t.Errorf("%s: swept %d powers, want %d", r.Workload, r.Powers, len(Powers()))
		}
		if r.Mismatches != 0 {
			t.Errorf("%s: %d grid points diverge between engines", r.Workload, r.Mismatches)
		}
		if r.Restarts == 0 {
			t.Errorf("%s: zero restarts across the grid — the sweep did not exercise intermittency", r.Workload)
		}
	}
}

// TestPrintSegmentCheckedDeterministic: the registry's table view must
// be byte-identical across runs and parallelism (no wall-clock columns).
func TestPrintSegmentCheckedDeterministic(t *testing.T) {
	render := func(workers int) string {
		rep, err := BuildReport("segment", Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := PrintTables(&sb, rep, false); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if a, b := render(1), render(0); a != b {
		t.Errorf("table not deterministic across parallelism:\n--- workers=1\n%s\n--- workers=auto\n%s", a, b)
	}
}

// TestSegmentThroughputRegression is the bench-smoke gate (set
// MOUSE_BENCH_SMOKE=1): the segment engine must beat the stepping path
// by at least 3x on every benchmark's Fig. 9 sweep. The committed
// BENCH_3.json records the real margin (≥10x); the CI floor is lower so
// shared runners don't flake the gate.
func TestSegmentThroughputRegression(t *testing.T) {
	if os.Getenv("MOUSE_BENCH_SMOKE") == "" {
		t.Skip("set MOUSE_BENCH_SMOKE=1 to run the throughput regression gate")
	}
	rows, err := ComputeSegment(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		t.Logf("%s: %.0f ns stepping, %.0f ns segment, %.1fx", r.Workload, r.NsStepping, r.NsSegment, r.Speedup)
		if r.Mismatches != 0 {
			t.Errorf("%s: %d mismatches", r.Workload, r.Mismatches)
		}
		if r.Speedup < 3 {
			t.Errorf("%s: speedup %.2fx below the 3x regression floor", r.Workload, r.Speedup)
		}
	}
}

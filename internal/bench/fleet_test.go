package bench

import (
	"strings"
	"testing"
)

// TestComputeFleetDeterministicOutcome: the serving experiment's
// deterministic columns must come out clean — every request OK, none
// rejected, zero mismatches — for both workloads under both power
// modes, in registry row order.
func TestComputeFleetDeterministicOutcome(t *testing.T) {
	rows, err := ComputeFleet(0)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct{ wl, power string }{
		{"svm-adult", "continuous"},
		{"svm-adult", "harvested"},
		{"bnn-hidden16", "continuous"},
		{"bnn-hidden16", "harvested"},
	}
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		if r.Workload != want[i].wl || r.Power != want[i].power {
			t.Errorf("row %d is %s/%s, want %s/%s", i, r.Workload, r.Power, want[i].wl, want[i].power)
		}
		if r.OK != fleetBenchRequests || r.Rejected != 0 || r.Errors != 0 || r.Mismatches != 0 {
			t.Errorf("%s/%s: ok %d rejected %d errors %d mismatches %d, want %d/0/0/0",
				r.Workload, r.Power, r.OK, r.Rejected, r.Errors, r.Mismatches, fleetBenchRequests)
		}
		if r.P50Ms < 0 || r.P99Ms < r.P50Ms || r.MeanMs <= 0 {
			t.Errorf("%s/%s: latency percentiles inconsistent: p50 %g p99 %g mean %g",
				r.Workload, r.Power, r.P50Ms, r.P99Ms, r.MeanMs)
		}
	}
}

// TestNormalizeZeroesFleetLatencies: the wall-clock percentile fields
// must not survive Normalize, or the deterministic-report contract
// breaks the first time two machines disagree on microseconds.
func TestNormalizeZeroesFleetLatencies(t *testing.T) {
	rep := &Report{Experiments: []ExperimentReport{{
		Name: "fleet",
		Rows: []FleetRow{{Workload: "svm-adult", OK: 3, P50Ms: 1.5, P99Ms: 2.5, MeanMs: 1.8}},
	}}}
	rep.Normalize()
	row := rep.Experiments[0].Rows.([]FleetRow)[0]
	if row.P50Ms != 0 || row.P99Ms != 0 || row.MeanMs != 0 {
		t.Errorf("Normalize left latencies %g/%g/%g", row.P50Ms, row.P99Ms, row.MeanMs)
	}
	if row.OK != 3 || row.Workload != "svm-adult" {
		t.Errorf("Normalize damaged outcome fields: %+v", row)
	}
}

// TestPrintFleetCheckedShape: the registry table view carries only the
// deterministic columns — no latency numbers.
func TestPrintFleetCheckedShape(t *testing.T) {
	rows, err := ComputeFleet(0)
	if err != nil {
		t.Fatal(err)
	}
	out := printRows(t, "fleet", rows)
	for _, wantSub := range []string{"svm-adult", "bnn-hidden16", "continuous", "harvested", "mismatches"} {
		if !strings.Contains(out, wantSub) {
			t.Errorf("table missing %q:\n%s", wantSub, out)
		}
	}
	if strings.Contains(out, "ms") && !strings.Contains(out, "mousebench -fleet") {
		t.Errorf("deterministic table leaks latency columns:\n%s", out)
	}
}

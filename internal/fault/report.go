package fault

import (
	"encoding/json"
	"fmt"
	"io"

	"mouse/internal/pool"
)

// Schema identifies the mousefault JSON report layout. Bump it when the
// report structure changes incompatibly; tooling keys off this string.
const Schema = "mouse-fault/v1"

// Layer names the simulation layer a sweep exercised.
const (
	LayerMachine = "machine"
	LayerTrace   = "trace"
)

// Report is the machine-readable result of one fault-injection sweep:
// every injection point's verdict plus the sweep's aggregate outcome.
type Report struct {
	Schema   string `json:"schema"`
	Tool     string `json:"tool"`
	Workload string `json:"workload"`
	// Layer is "machine" (bit-accurate, cell-state equivalence) or
	// "trace" (analytic stream, protocol equivalence).
	Layer string `json:"layer"`
	// Instructions is the golden run's committed-instruction count.
	Instructions uint64 `json:"instructions"`
	// Points, Equivalent, and MaxReplays aggregate the verdicts.
	Points     int    `json:"points"`
	Equivalent int    `json:"equivalent"`
	MaxReplays uint64 `json:"max_replays"`
	// Parallelism is the resolved sweep worker bound; WallSeconds the
	// host wall-clock cost. Both are zeroed by Normalize.
	Parallelism int     `json:"parallelism"`
	WallSeconds float64 `json:"wall_seconds"`

	Verdicts []Verdict `json:"verdicts"`
}

// buildReport aggregates a sweep's verdicts.
func buildReport(workload, layer string, instructions uint64, verdicts []Verdict, opts Options) *Report {
	workers := opts.Workers
	if workers <= 0 {
		workers = pool.DefaultWorkers()
	}
	rep := &Report{
		Schema:       Schema,
		Tool:         "mousefault",
		Workload:     workload,
		Layer:        layer,
		Instructions: instructions,
		Points:       len(verdicts),
		Verdicts:     verdicts,
		Parallelism:  workers,
	}
	for _, v := range verdicts {
		if v.Equivalent {
			rep.Equivalent++
		}
		if v.Replays > rep.MaxReplays {
			rep.MaxReplays = v.Replays
		}
	}
	return rep
}

// AllEquivalent reports whether every injection point was
// crash-equivalent to the golden run.
func (r *Report) AllEquivalent() bool { return r.Equivalent == r.Points }

// Failures returns the non-equivalent verdicts.
func (r *Report) Failures() []Verdict {
	var out []Verdict
	for _, v := range r.Verdicts {
		if !v.Equivalent {
			out = append(out, v)
		}
	}
	return out
}

// WriteJSON emits the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Normalize zeroes the run-environment fields — the worker count and
// wall-clock time — leaving only simulation output, so reports from
// different machines or parallelism settings compare deep-equal exactly
// when the sweep itself is deterministic.
func (r *Report) Normalize() {
	r.Parallelism = 0
	r.WallSeconds = 0
}

// Summary renders a one-paragraph human-readable outcome.
func (r *Report) Summary(w io.Writer) {
	fmt.Fprintf(w, "%s [%s]: %d/%d injection points crash-equivalent, max replays %d\n",
		r.Workload, r.Layer, r.Equivalent, r.Points, r.MaxReplays)
	for i, v := range r.Failures() {
		if i == 8 {
			fmt.Fprintf(w, "  ... and %d more failures\n", len(r.Failures())-i)
			break
		}
		fmt.Fprintf(w, "  FAIL at instr %d frac %.2f: %s\n", v.Index, v.Frac, v.Mismatch)
	}
}

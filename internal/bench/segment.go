package bench

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"mouse/internal/energy"
	"mouse/internal/mtj"
	"mouse/internal/pool"
	"mouse/internal/power"
	"mouse/internal/sim"
	"mouse/internal/workload"
)

// The segment-engine experiment: run every benchmark's full Fig. 9
// power sweep twice — once on the stepping intermittent simulator, once
// on the analytic segment engine — timing both and verifying the
// Results are bit-identical at every grid point. The speedup is the
// PR's headline number, recorded in the BENCH_*.json trajectory; a
// speedup with mismatches is not a result.

// SegmentRow is one benchmark's stepping-vs-segment sweep comparison.
type SegmentRow struct {
	// Workload names the benchmark; Powers is the number of grid powers
	// swept (one full intermittent run each, per engine).
	Workload string
	Powers   int
	// Mismatches counts grid points where the segment engine's Result
	// (or error) differed from stepping (always 0 on a correct engine).
	Mismatches int
	// Restarts totals the outages across the sweep — the quantity that
	// makes this grid expensive for the stepping path, and deterministic
	// simulation output (both engines must agree on it).
	Restarts uint64
	// NsStepping and NsSegment are host nanoseconds for the benchmark's
	// whole power sweep on each engine; Speedup is their ratio. All
	// three are measured wall clock, so Normalize zeroes them.
	NsStepping float64
	NsSegment  float64
	Speedup    float64
}

// ComputeSegment runs the comparison at the Fig. 9 grid (ModernSTT,
// the paper's power sweep) with benchmarks as independent jobs on the
// sweep pool. The experiment measures host throughput plus an inline
// differential check, so it takes no observer.
func ComputeSegment(workers int) ([]SegmentRow, error) {
	specs := workload.Benchmarks()
	cfg := mtj.ModernSTT()
	return pool.Jobs(workers, len(specs), func(i int) (SegmentRow, error) {
		return computeSegmentRow(specs[i], cfg)
	})
}

func computeSegmentRow(spec workload.Spec, cfg *mtj.Config) (SegmentRow, error) {
	powers := Powers()
	row := SegmentRow{Workload: spec.Name, Powers: len(powers)}
	model := energy.NewModel(cfg)

	// Both engines sweep the grid on one worker; the segment engine gets
	// the sweep as a single RunSweep call (its natural unit of work —
	// one precosting pass, lanes interleaved), the stepping engine runs
	// the points back to back.
	sweep := func(force bool) ([]sim.Result, []error, float64) {
		results := make([]sim.Result, len(powers))
		errs := make([]error, len(powers))
		start := time.Now()
		if force {
			for i, watts := range powers {
				r := sim.NewRunner(model)
				r.ForceStepping = true
				h := power.NewHarvester(power.Constant{W: watts}, cfg.CapC, cfg.CapVMin, cfg.CapVMax)
				results[i], errs[i] = r.Run(spec.Stream(), h)
			}
		} else {
			hs := make([]*power.Harvester, len(powers))
			for i, watts := range powers {
				hs[i] = power.NewHarvester(power.Constant{W: watts}, cfg.CapC, cfg.CapVMin, cfg.CapVMax)
			}
			results, errs = sim.NewRunner(model).RunSweep(spec.Stream(), hs)
		}
		return results, errs, time.Since(start).Seconds()
	}

	stepRes, stepErrs, stepSeconds := sweep(true)
	segRes, segErrs, segSeconds := sweep(false)

	for i := range powers {
		if (segErrs[i] == nil) != (stepErrs[i] == nil) ||
			(segErrs[i] != nil && segErrs[i].Error() != stepErrs[i].Error()) ||
			segRes[i] != stepRes[i] {
			row.Mismatches++
			continue
		}
		row.Restarts += segRes[i].Restarts
	}

	row.NsStepping = stepSeconds * 1e9
	row.NsSegment = segSeconds * 1e9
	if row.NsSegment > 0 {
		row.Speedup = row.NsStepping / row.NsSegment
	}
	return row, nil
}

// writeSegment renders the segment experiment's deterministic columns.
// Experiment tables must be byte-identical across runs and parallelism,
// so the wall-clock numbers stay out; what remains is the simulation
// result: every grid point bit-identical across engines, and the outage
// totals both engines agreed on.
func writeSegment(w io.Writer, rows []SegmentRow) error {
	fmt.Fprintln(w, "Segment engine equivalence — Fig. 9 sweep (timings: BENCH_*.json or go test -bench Fig9Row)")
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tpowers\trestarts\tmismatches")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\n", r.Workload, r.Powers, r.Restarts, r.Mismatches)
	}
	return tw.Flush()
}

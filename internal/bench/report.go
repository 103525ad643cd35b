package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"time"

	"mouse/internal/array"
	"mouse/internal/mtj"
	"mouse/internal/pool"
	"mouse/internal/probe"
)

// Schema identifies the JSON report layout. Bump it when the report
// structure changes incompatibly; BENCH_*.json files across PRs form
// the perf trajectory and tooling keys off this string.
const Schema = "mouse-bench/v1"

// Report is the machine-readable result of a mousebench run: every
// selected experiment's typed rows plus its wall-clock cost, so a
// committed BENCH_N.json both records the paper-reproduction numbers
// and tracks how fast the harness regenerates them.
type Report struct {
	Schema string `json:"schema"`
	Tool   string `json:"tool"`
	// Parallelism is the sweep-engine worker bound the run used
	// (resolved: never 0).
	Parallelism int                `json:"parallelism"`
	Experiments []ExperimentReport `json:"experiments"`

	// Telemetry is the probe.Stats snapshot of every simulation the run
	// executed, present only when telemetry collection was requested
	// (mousebench -telemetry). Adding an optional section keeps the
	// schema at v1: absent in older BENCH_*.json files, ignored by
	// tooling that does not know it.
	Telemetry *probe.Section `json:"telemetry,omitempty"`

	// Meta records the environment that produced the report (toolchain,
	// host parallelism, git revision when the binary carries VCS
	// stamping). Like Telemetry it is an optional v1 section: Normalize
	// strips it, so it never participates in cross-run result diffs.
	Meta *RunMeta `json:"meta,omitempty"`
}

// RunMeta is the report's run-environment stamp.
type RunMeta struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// GitRevision is the commit the binary was built from, when the Go
	// toolchain embedded VCS info (`go build` inside a checkout; absent
	// under `go run` and in test binaries).
	GitRevision string `json:"git_revision,omitempty"`
	// GitDirty marks a build from a modified working tree.
	GitDirty bool `json:"git_dirty,omitempty"`
}

// CollectRunMeta captures the current process's run metadata.
func CollectRunMeta() *RunMeta {
	m := &RunMeta{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.GitRevision = s.Value
			case "vcs.modified":
				m.GitDirty = s.Value == "true"
			}
		}
	}
	return m
}

// ExperimentReport is one experiment's structured result.
type ExperimentReport struct {
	Name string `json:"name"`
	// WallSeconds is the host wall-clock time computing the rows took.
	WallSeconds float64 `json:"wall_seconds"`
	// Rows is the experiment's typed row slice (e.g. []Fig9Sweep for
	// fig9, []TableIVRow for table4); in decoded reports it is the
	// generic JSON form.
	Rows any `json:"rows"`
}

// WriteJSON emits the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Normalize zeroes the run-environment fields — wall-clock times and
// the worker count — leaving only the simulated results, so reports
// from different machines or parallelism settings compare deep-equal
// exactly when the simulation itself is deterministic.
func (r *Report) Normalize() {
	r.Parallelism = 0
	for i := range r.Experiments {
		r.Experiments[i].WallSeconds = 0
		// The batch experiment's throughput numbers are host wall clock
		// too; only its shape and mismatch count are simulation output.
		if rows, ok := r.Experiments[i].Rows.([]BatchRow); ok {
			for j := range rows {
				rows[j].NsSequential = 0
				rows[j].NsBatched = 0
				rows[j].Speedup = 0
			}
		}
		// Likewise the segment experiment's sweep timings; its restart
		// totals and mismatch counts are simulation output.
		if rows, ok := r.Experiments[i].Rows.([]SegmentRow); ok {
			for j := range rows {
				rows[j].NsStepping = 0
				rows[j].NsSegment = 0
				rows[j].Speedup = 0
			}
		}
		// And the fleet experiment's request latencies; its outcome and
		// mismatch counters are the serving result.
		if rows, ok := r.Experiments[i].Rows.([]FleetRow); ok {
			for j := range rows {
				rows[j].P50Ms = 0
				rows[j].P99Ms = 0
				rows[j].MeanMs = 0
			}
		}
	}
	// Telemetry floats accumulate in pool-scheduling order, so two runs
	// of the same experiments at different parallelism can differ in the
	// last ulp; the section is diagnostics, not simulation output.
	r.Telemetry = nil
	r.Meta = nil
}

// Fig9Sweep is one configuration's Fig. 9 power sweep in a report.
type Fig9Sweep struct {
	Config string
	Points []Fig9Point
}

// CrossoverResult is the crossover experiment's single row.
type CrossoverResult struct {
	// PowerW is the FP-BNN vs SVM MNIST (Bin) latency-crossover power.
	PowerW float64
}

// Options are a report build's run settings.
type Options struct {
	// Workers bounds the sweep pool (<= 0 selects pool.DefaultWorkers).
	Workers int
	// Obs, when non-nil, receives the events of every simulation the
	// experiments run. Pool jobs share it, so it must be
	// concurrency-safe, like probe.Stats; the caller reads it back after
	// the build (mousebench -telemetry attaches its Section to the
	// report). Experiments that run no simulations ignore it.
	Obs probe.Observer
	// Progress, when non-nil, receives per-experiment lifecycle events.
	Progress Progress
	// Lanes is the batch experiment's bit-slice lane count (0 selects
	// array.MaxLanes).
	Lanes int
}

// Experiment is one entry of the mousebench registry: a stable name, the
// producer of its typed rows, and the table that renders those rows.
type Experiment struct {
	Name string
	// Rows computes the experiment's typed row slice.
	Rows func(o Options) (any, error)
	// table renders the slice Rows returned; wallClock adds the
	// host-timing columns of experiments that measure them.
	table func(w io.Writer, rows any, wallClock bool) error
}

// experiment builds a registry entry from a typed row producer and the
// table that renders its rows.
func experiment[T any](name string, rows func(o Options) ([]T, error), table func(w io.Writer, rows []T, wallClock bool) error) Experiment {
	return Experiment{
		Name: name,
		Rows: func(o Options) (any, error) {
			r, err := rows(o)
			if err != nil {
				return nil, err
			}
			return r, nil
		},
		table: func(w io.Writer, rows any, wallClock bool) error {
			r, ok := rows.([]T)
			if !ok {
				return fmt.Errorf("rows are %T, want %T", rows, r)
			}
			return table(w, r, wallClock)
		},
	}
}

// Experiments lists every experiment in output order. The names are the
// mousebench -experiment values and the report row keys; keep them
// stable across PRs so BENCH_*.json files stay comparable.
func Experiments() []Experiment {
	modern := mtj.ModernSTT()
	return []Experiment{
		experiment("table1",
			func(Options) ([]TableIRow, error) { return ComputeTableI(modern), nil },
			func(w io.Writer, rows []TableIRow, _ bool) error { return writeTableI(w, modern.Name, rows) }),
		experiment("table2",
			func(Options) ([]TableIIRow, error) { return ComputeTableII(), nil },
			func(w io.Writer, rows []TableIIRow, _ bool) error { return writeTableII(w, rows) }),
		experiment("table3",
			func(Options) ([]TableIIIRow, error) { return ComputeTableIII(), nil },
			func(w io.Writer, rows []TableIIIRow, _ bool) error { return writeTableIII(w, rows) }),
		experiment("table4",
			func(o Options) ([]TableIVRow, error) { return ComputeTableIV(o.Workers, o.Obs), nil },
			func(w io.Writer, rows []TableIVRow, _ bool) error { return writeTableIV(w, rows) }),
		experiment("fig9",
			func(o Options) ([]Fig9Sweep, error) {
				var sweeps []Fig9Sweep
				for _, cfg := range mtj.Configs() {
					points, err := ComputeFig9(cfg, Powers(), o.Workers, o.Obs)
					if err != nil {
						return nil, err
					}
					sweeps = append(sweeps, Fig9Sweep{Config: cfg.Name, Points: points})
				}
				return sweeps, nil
			},
			func(w io.Writer, sweeps []Fig9Sweep, _ bool) error {
				for i, sweep := range sweeps {
					if i > 0 {
						fmt.Fprintln(w)
					}
					if err := writeFig9(w, sweep); err != nil {
						return err
					}
				}
				return nil
			}),
		breakdownExperiment("fig10", "Fig. 10", mtj.ModernSTT()),
		breakdownExperiment("fig11", "Fig. 11", mtj.ProjectedSTT()),
		breakdownExperiment("fig12", "Fig. 12", mtj.ProjectedSHE()),
		experiment("fft",
			func(o Options) ([]FFTRow, error) { return ComputeFFT(o.Workers, o.Obs) },
			func(w io.Writer, rows []FFTRow, _ bool) error { return writeFFT(w, rows) }),
		experiment("robustness",
			func(o Options) ([]RobustnessRow, error) { return ComputeRobustness(o.Workers), nil },
			func(w io.Writer, rows []RobustnessRow, _ bool) error { return writeRobustness(w, rows) }),
		experiment("checkpoint",
			func(o Options) ([]CheckpointRow, error) {
				return ComputeCheckpointSweep(modern, "SVM ADULT", o.Workers, o.Obs)
			},
			func(w io.Writer, rows []CheckpointRow, _ bool) error {
				return writeCheckpointSweep(w, "SVM ADULT", modern.Name, rows)
			}),
		experiment("parallelism",
			func(Options) ([]ParallelismRow, error) { return ComputeParallelism(), nil },
			func(w io.Writer, rows []ParallelismRow, _ bool) error { return writeParallelism(w, rows) }),
		experiment("crossover",
			func(o Options) ([]CrossoverResult, error) {
				p, err := CrossoverPowerW(modern, o.Workers, o.Obs)
				if err != nil {
					return nil, err
				}
				return []CrossoverResult{{PowerW: p}}, nil
			},
			func(w io.Writer, rows []CrossoverResult, _ bool) error {
				for _, r := range rows {
					fmt.Fprintf(w, "FP-BNN vs SVM MNIST (Bin) latency crossover: %.3g W\n", r.PowerW)
				}
				fmt.Fprintln(w, "below this power the energy-hungrier FP-BNN is slower; above it its")
				_, err := fmt.Fprintln(w, "higher exploited parallelism wins (Section IX)")
				return err
			}),
		experiment("batch",
			func(o Options) ([]BatchRow, error) {
				lanes := o.Lanes
				if lanes == 0 {
					lanes = array.MaxLanes
				}
				return ComputeBatch(lanes, o.Workers)
			},
			writeBatch),
		experiment("segment",
			func(o Options) ([]SegmentRow, error) { return ComputeSegment(o.Workers) },
			func(w io.Writer, rows []SegmentRow, _ bool) error { return writeSegment(w, rows) }),
		experiment("fleet",
			func(o Options) ([]FleetRow, error) { return ComputeFleet(o.Workers) },
			writeFleet),
	}
}

// breakdownExperiment builds a Figs. 10–12 registry entry: every
// benchmark under cfg at 60 µW.
func breakdownExperiment(name, figure string, cfg *mtj.Config) Experiment {
	const watts = 60e-6
	return experiment(name,
		func(o Options) ([]BreakdownRow, error) { return ComputeBreakdown(cfg, watts, o.Workers, o.Obs) },
		func(w io.Writer, rows []BreakdownRow, _ bool) error {
			return writeBreakdown(w, figure, cfg.Name, watts, rows)
		})
}

// selectExperiments resolves an -experiment value against the registry.
func selectExperiments(experiment string) ([]Experiment, error) {
	all := Experiments()
	if experiment == "all" {
		return all, nil
	}
	for _, e := range all {
		if e.Name == experiment {
			return []Experiment{e}, nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q", experiment)
}

// BuildReport computes the selected experiment's (or "all" experiments')
// typed rows and wall-clock costs into a Report, stamped with the
// current run's metadata. It is the one way experiments run: the -json
// report is this Report, and the tables are PrintTables' rendering of it.
func BuildReport(experiment string, o Options) (*Report, error) {
	selected, err := selectExperiments(experiment)
	if err != nil {
		return nil, err
	}
	workers := o.Workers
	if workers <= 0 {
		workers = pool.DefaultWorkers()
	}
	rep := &Report{Schema: Schema, Tool: "mousebench", Parallelism: workers, Meta: CollectRunMeta()}
	for i, e := range selected {
		if o.Progress != nil {
			o.Progress.ExperimentStarted(e.Name, i+1, len(selected))
		}
		start := time.Now()
		rows, err := e.Rows(o)
		wall := time.Since(start)
		if o.Progress != nil {
			o.Progress.ExperimentFinished(e.Name, i+1, len(selected), RowCount(rows), wall, err)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name, err)
		}
		rep.Experiments = append(rep.Experiments, ExperimentReport{
			Name:        e.Name,
			WallSeconds: wall.Seconds(),
			Rows:        rows,
		})
	}
	return rep, nil
}

// PrintTables renders a report built by BuildReport as the
// human-readable tables: each experiment's rows in report order,
// separated by exactly one blank line, with no leading or trailing blank
// line, followed by the telemetry summary when the report carries one.
// wallClock adds the host-timing columns of the batch and fleet
// experiments (mousebench -batch and -fleet); without it the output is
// byte-identical across runs and parallelism.
func PrintTables(w io.Writer, rep *Report, wallClock bool) error {
	registry := map[string]Experiment{}
	for _, e := range Experiments() {
		registry[e.Name] = e
	}
	for i, er := range rep.Experiments {
		e, ok := registry[er.Name]
		if !ok {
			return fmt.Errorf("unknown experiment %q", er.Name)
		}
		if i > 0 {
			fmt.Fprintln(w)
		}
		if err := e.table(w, er.Rows, wallClock); err != nil {
			return fmt.Errorf("%s: %w", er.Name, err)
		}
	}
	if rep.Telemetry == nil {
		return nil
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Telemetry — totals across every simulation above")
	return rep.Telemetry.WriteSummary(w)
}

// mousebench regenerates the tables and figures of the MOUSE paper's
// evaluation (Sections VIII–IX).
//
// Usage:
//
//	mousebench [-experiment all|table1|table2|table3|table4|fig9|fig10|fig11|fig12|
//	            crossover|robustness|checkpoint|parallelism|fft|batch|segment|fleet]
//	           [-batch N] [-fleet] [-parallel N] [-json] [-telemetry] [-progress]
//	           [-out FILE] [-cpuprofile FILE] [-memprofile FILE]
//
// Each experiment prints the same rows or series the paper reports; see
// EXPERIMENTS.md for the paper-vs-measured comparison. Grid-shaped
// experiments run on a worker pool bounded by -parallel (default: one
// worker per CPU); results are identical at any parallelism. -json
// replaces the tables with a machine-readable report (schema documented
// in EXPERIMENTS.md); -out writes the output to a file instead of
// stdout, e.g. `mousebench -json -out BENCH.json` to record a
// perf-trajectory snapshot.
//
// Table mode and -json run the same report build; the tables are a
// rendering of the report's rows.
//
// -telemetry attaches a shared probe.Stats observer to every simulation
// the selected experiments run: with -json the report gains the
// optional "telemetry" section (replays, outage durations, energy by
// phase); in table mode a summary block is appended after the tables.
//
// -progress reports each experiment's start and finish (with row count
// and wall time) live on stderr while the run executes, leaving stdout
// bytes untouched — useful when `-experiment all` takes a while and the
// tables only appear at the end.
//
// -batch N runs only the batch experiment, with N bit-slice lanes
// (1–64) and its wall-clock columns shown: every hot workload is
// replayed through the bit-sliced batch engine and timed against the
// sequential controller path, reporting host ns/inference for both.
// Without the flag the registry's batch experiment runs at the full 64
// lanes and its table prints only the deterministic columns.
//
// -fleet runs only the fleet experiment, with its wall-clock columns
// shown: every hot workload is served through an internal/fleet
// inference fleet under continuous and harvested power, reporting
// p50/p99/mean ms per request. Without the flag the fleet table prints
// only the deterministic outcome counters.
//
// -cpuprofile and -memprofile write pprof profiles of the selected
// experiments (CPU sampled across the run; heap captured at the end),
// so perf PRs can attach `go tool pprof` evidence for the paths they
// touch.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"mouse/internal/bench"
	"mouse/internal/probe"
)

func main() {
	experiment := flag.String("experiment", "all", "which experiment to run")
	batchLanes := flag.Int("batch", 0, "run only the batch throughput experiment with this many bit-slice lanes (1-64)")
	fleetOnly := flag.Bool("fleet", false, "run only the fleet serving experiment, latency percentiles included")
	parallel := flag.Int("parallel", 0, "sweep worker bound; 0 means one per CPU")
	asJSON := flag.Bool("json", false, "emit a machine-readable report instead of tables")
	telemetry := flag.Bool("telemetry", false, "collect run telemetry (replays, outages, energy by phase)")
	progress := flag.Bool("progress", false, "report per-experiment start/finish lines live on stderr")
	outPath := flag.String("out", "", "write output to this file instead of stdout")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after the run to this file")
	flag.Parse()

	out := io.Writer(os.Stdout)
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mousebench:", err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}
	stop, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mousebench:", err)
		os.Exit(1)
	}
	opts := bench.Options{Workers: *parallel}
	if *progress {
		opts.Progress = bench.NewProgressWriter(os.Stderr)
	}
	name, wallClock := *experiment, false
	if *batchLanes != 0 {
		name, wallClock, opts.Lanes = "batch", true, *batchLanes
	} else if *fleetOnly {
		name, wallClock = "fleet", true
	}
	runErr := runExperiments(out, name, opts, *asJSON, *telemetry, wallClock)
	if err := stop(); err != nil {
		fmt.Fprintln(os.Stderr, "mousebench:", err)
		os.Exit(1)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "mousebench:", runErr)
		os.Exit(1)
	}
}

// startProfiles begins CPU profiling (when requested) and returns a
// stop function that finishes the CPU profile and snapshots the heap.
func startProfiles(cpuPath, memPath string) (func() error, error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// runExperiments builds the report of the selected experiment (or all
// of them) and writes it to out: as JSON with asJSON, otherwise as
// tables, with the batch and fleet wall-clock columns when wallClock is
// set. telemetry attaches a shared probe.Stats to every simulation and
// reports its totals. Progress events (o.Progress) never reach out.
func runExperiments(out io.Writer, experiment string, o bench.Options, asJSON, telemetry, wallClock bool) error {
	var stats *probe.Stats
	if telemetry {
		stats = &probe.Stats{}
		o.Obs = stats
	}
	rep, err := bench.BuildReport(experiment, o)
	if err != nil {
		return err
	}
	if stats != nil {
		rep.Telemetry = stats.Section()
	}
	if asJSON {
		return rep.WriteJSON(out)
	}
	return bench.PrintTables(out, rep, wallClock)
}

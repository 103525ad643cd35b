// perfbench is the repository benchmark: it runs one workload for a
// fixed time, checks every output, and prints one JSON result line.
//
// Usage (from the repository root, through the build wrapper):
//
//	bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads:
//
//	serve-sparse     live moused on continuous power, open loop at 40 req/s
//	                 of mostly 1-sample requests: HTTP, batching linger and
//	                 near-empty replays dominate
//	serve-harvested  live moused on the default harvested fleet, open loop
//	                 at 15 req/s of mostly 64-sample requests: recharge
//	                 stalls and charge-ranked placement dominate
//	sim-sweep        the Fig. 9 latency-vs-power grid, in process
//	crash-sweep      exhaustive crash-equivalence sweeps of tiny-bnn and
//	                 tiny-fft on one worker, in process
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the run also records spans around its calls into each layer,
// writes them to the output directory, and reports per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// set records a metric under the unit BENCHMARK.json declares for it.
func (r *result) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// endToEnd and perLayer mirror the metric lists of BENCHMARK.json,
// name then unit. Every workload reports every end-to-end metric. A
// traced run reports every per-layer metric, 0 for a layer its workload
// does not exercise.
var endToEnd = [][2]string{
	{"setup_s", "s"}, {"p50_ms", "ms"}, {"p95_ms", "ms"}, {"throughput_per_s", "1/s"}, {"rss_mb", "MiB"},
}

var perLayer = [][2]string{
	{"moused.rtt_ms", "ms"}, {"moused.overhead_ms", "ms"},
	{"fleet.batches", "count"}, {"fleet.requests_per_batch", "count"}, {"fleet.samples_per_batch", "count"},
	{"fleet.rejected", "count"}, {"fleet.stall_ms_per_batch", "ms"}, {"fleet.outages", "count"},
	{"fleet.device_share_max", "ratio"}, {"fleet.infer_ms", "ms"},
	{"replay.svm-adult.1_ms", "ms"}, {"replay.svm-adult.8_ms", "ms"}, {"replay.svm-adult.64_ms", "ms"},
	{"replay.svm-adult.seq_ms", "ms"},
	{"replay.bnn-hidden16.8_ms", "ms"}, {"replay.bnn-hidden16.64_ms", "ms"}, {"replay.bnn-hidden16.4096_ms", "ms"},
	{"replay.bnn-hidden16.seq_ms", "ms"},
	{"workload.compile_ms", "ms"}, {"metrics.scrape_ms", "ms"},
	{"sim.run_ms.svm-mnist", "ms"}, {"sim.run_ms.svm-mnist-bin", "ms"}, {"sim.run_ms.svm-har", "ms"},
	{"sim.run_ms.svm-adult", "ms"}, {"sim.run_ms.bnn-finn-mnist", "ms"}, {"sim.run_ms.bnn-fpbnn-mnist", "ms"},
	{"sim.instructions", "count"}, {"sim.restarts", "count"},
	{"energy.precost_ms", "ms"}, {"baseline.sonic_ms", "ms"},
	{"fault.golden_ms", "ms"}, {"fault.inject_us", "us"},
	{"fault.inject_us_first_decile", "us"}, {"fault.inject_us_last_decile", "us"},
	{"fault.instr_per_injection", "count"}, {"array.tile_writes_per_injection", "count"},
	{"loadgen.late_ms", "ms"}, {"loadgen.late_max_ms", "ms"}, {"loadgen.backlog_ratio", "ratio"},
	{"trace.overhead_p50_ms", "ms"},
}

var units = func() map[string]string {
	m := map[string]string{}
	for _, nu := range append(append([][2]string(nil), endToEnd...), perLayer...) {
		m[nu[0]] = nu[1]
	}
	return m
}()

// complete checks that the result carries exactly the metrics its mode
// reports, filling per-layer metrics the workload did not exercise
// with 0.
func (r *result) complete(traced bool) error {
	want := endToEnd
	if traced {
		want = perLayer
		for _, nu := range perLayer {
			if _, ok := r.Metrics[nu[0]]; !ok {
				r.set(nu[0], 0)
			}
		}
	}
	for _, nu := range want {
		if _, ok := r.Metrics[nu[0]]; !ok {
			return fmt.Errorf("metric %s missing", nu[0])
		}
	}
	if len(r.Metrics) != len(want) {
		return fmt.Errorf("reported %d metrics, BENCHMARK.json lists %d", len(r.Metrics), len(want))
	}
	return nil
}

// run carries one invocation's settings.
type run struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	moused   string // moused binary
	out      string // directory for scratch files and span traces
	tr       *tracer
}

// processStart is when the benchmark process started; sweeps time
// their cold first operation from it.
var processStart = time.Now()

// p50Bound mirrors the p50_ms bound in BENCHMARK.json; the backlog
// guard flags a run whose last-quarter median exceeds its first-quarter
// median by more than it.
const p50Bound = 0.25

func main() {
	var r run
	flag.StringVar(&r.workload, "workload", "", "workload to run")
	flag.Int64Var(&r.seed, "seed", 1, "input seed")
	flag.Float64Var(&r.seconds, "seconds", 20, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.StringVar(&r.moused, "moused", "", "moused binary (serve workloads)")
	flag.StringVar(&r.out, "out", ".", "directory for scratch files and traces")
	setupChild := flag.String("setup-child", "", "internal: time one cold first operation of this sweep and exit")
	flag.Parse()

	if *setupChild != "" {
		if err := runSetupChild(*setupChild); err != nil {
			fatal(err)
		}
		return
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1"))
	}
	r.trace = *traceFlag == 1
	if r.trace {
		r.tr = newTracer()
	}
	if r.seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive"))
	}

	var res *result
	var err error
	switch r.workload {
	case "serve-sparse":
		res, err = runServe(&r, serveSparse)
	case "serve-harvested":
		res, err = runServe(&r, serveHarvested)
	case "sim-sweep":
		res, err = runSimSweep(&r)
	case "crash-sweep":
		res, err = runCrashSweep(&r)
	default:
		err = fmt.Errorf("unknown workload %q (serve-sparse, serve-harvested, sim-sweep, crash-sweep)", r.workload)
	}
	if err != nil {
		fatal(err)
	}
	if r.trace {
		path := fmt.Sprintf("%s/trace-%s-seed%d.json", r.out, r.workload, r.seed)
		if err := r.tr.write(path); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(r.tr.spans), path)
	}
	if err := res.complete(r.trace); err != nil {
		fatal(err)
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// ---- statistics -----------------------------------------------------------

// quantile is the nearest-rank q-quantile of xs (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the middle value, averaging the two middle values of an
// even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// peakRSSMiB reads a process's peak resident set (VmHWM) in MiB; pid
// "self" reads the benchmark's own.
func peakRSSMiB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

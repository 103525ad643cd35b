package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"mouse/internal/bench"
	"mouse/internal/fleet"
	"mouse/internal/metrics"
	"mouse/internal/probe"
)

// maxRecentRuns bounds the /runs history ring.
const maxRecentRuns = 64

// maxInferBody bounds a /v1/infer request body (the largest legal
// batch, bnn-hidden16's 4096 64-feature samples, is well under 8 MiB
// of JSON).
const maxInferBody = 8 << 20

// buildReport is the seam tests use to stub the experiment runner;
// production always points at bench.BuildReport.
var buildReport = bench.BuildReport

// testHookAfterExperiment, when non-nil, runs after each job finishes
// (before any -interval pause). Tests use it to scrape mid-stream at a
// deterministic point instead of polling on wall clock.
var testHookAfterExperiment func(seq int)

// server is moused's state: one probe.Stats shard per simulated device
// fed by the job stream, a metrics registry that aggregates them at
// scrape time, and a bounded history of recent runs for /runs.
//
// The shards are the same lock-free probe.Stats the simulators already
// feed, so serving /metrics adds nothing to simulation hot paths: all
// merging happens per scrape via Stats.Merge into a fresh accumulator.
type server struct {
	reg     *metrics.Registry
	devices []*probe.Stats
	workers int
	fleet   *fleet.Fleet

	started    *metrics.Counter
	completed  *metrics.Counter
	failed     *metrics.Counter
	active     *metrics.Gauge
	runSeconds *metrics.Histogram

	inferRequests *metrics.CounterVec
	inferSamples  *metrics.Counter
	inferLatency  *metrics.Histogram

	mu     sync.Mutex
	runs   []runStatus // most recent first, capped at maxRecentRuns
	nextID int
}

// runStatus is one entry of the /runs JSON feed.
type runStatus struct {
	Seq         int     `json:"seq"`
	Name        string  `json:"name"`
	Device      int     `json:"device"`
	State       string  `json:"state"` // running, done, failed
	Rows        int     `json:"rows,omitempty"`
	WallSeconds float64 `json:"wall_seconds,omitempty"`
	Error       string  `json:"error,omitempty"`
}

// runsPage is the /runs response document.
type runsPage struct {
	Started   float64     `json:"started"`
	Completed float64     `json:"completed"`
	Failed    float64     `json:"failed"`
	Active    float64     `json:"active"`
	Runs      []runStatus `json:"runs"`
}

func newServer(devices, workers int, fcfg fleet.Config) (*server, error) {
	if devices < 1 {
		devices = 1
	}
	fl, err := fleet.New(fcfg)
	if err != nil {
		return nil, err
	}
	s := &server{
		reg:     metrics.New(),
		devices: make([]*probe.Stats, devices),
		workers: workers,
		fleet:   fl,
	}
	for i := range s.devices {
		s.devices[i] = &probe.Stats{}
	}

	s.started = s.reg.NewCounter("moused_runs_started_total", "Experiment runs the job stream has started.")
	s.completed = s.reg.NewCounter("moused_runs_completed_total", "Experiment runs that finished successfully.")
	s.failed = s.reg.NewCounter("moused_runs_failed_total", "Experiment runs that returned an error.")
	s.active = s.reg.NewGauge("moused_runs_active", "Experiment runs currently executing.")
	s.runSeconds = s.reg.NewHistogram("moused_run_seconds", "Host wall-clock duration of completed experiment runs.",
		metrics.LogBuckets(1e-3, 8))
	s.reg.Collect("moused_devices", "gauge", "Simulated devices this instance aggregates.",
		func() []metrics.Sample { return []metrics.Sample{{Value: float64(len(s.devices))}} })

	// The fleet view: every probe family under mouse_probe_* reads one
	// merged snapshot of all device shards, taken once per scrape.
	metrics.ExportStats(s.reg, "mouse_probe", s.fleetSection)

	// Per-device families for the gauges that only make sense unmerged.
	s.reg.Collect("moused_device_voltage_volts", "gauge",
		"Capacitor voltage extremes per device (absent until a device reports voltage samples).",
		func() []metrics.Sample {
			var out []metrics.Sample
			for i, d := range s.devices {
				sec := d.Section()
				if sec.VoltageSamples == 0 {
					continue
				}
				dev := strconv.Itoa(i)
				out = append(out,
					metrics.Sample{Labels: []metrics.Label{{Name: "device", Value: dev}, {Name: "bound", Value: "max"}}, Value: sec.VoltageMax},
					metrics.Sample{Labels: []metrics.Label{{Name: "device", Value: dev}, {Name: "bound", Value: "min"}}, Value: sec.VoltageMin})
			}
			return out
		})
	s.reg.Collect("moused_device_instructions_total", "counter",
		"Committed instruction cycles per device.",
		func() []metrics.Sample {
			out := make([]metrics.Sample, 0, len(s.devices))
			for i, d := range s.devices {
				out = append(out, metrics.Sample{
					Labels: []metrics.Label{{Name: "device", Value: strconv.Itoa(i)}},
					Value:  float64(d.Section().Instructions)})
			}
			return out
		})

	// The inference fleet: request counters and latency from the HTTP
	// handler, queue depth / charge / batch totals read from the fleet
	// at scrape time.
	s.inferRequests = s.reg.NewCounterVec("moused_infer_requests_total",
		"Inference API requests by workload and outcome (ok, rejected, invalid, error).",
		"workload", "outcome")
	s.inferSamples = s.reg.NewCounter("moused_infer_samples_total",
		"Samples classified through the inference API.")
	s.inferLatency = s.reg.NewHistogram("moused_infer_latency_seconds",
		"End-to-end /v1/infer latency of successful requests.",
		metrics.ExpBuckets(1e-4, 4, 10))
	s.reg.Collect("moused_fleet_devices", "gauge",
		"Inference devices in the serving fleet.",
		func() []metrics.Sample { return []metrics.Sample{{Value: float64(fl.Devices())}} })
	s.reg.Collect("moused_fleet_queue_depth", "gauge",
		"Admission-queue depth per served workload.",
		func() []metrics.Sample {
			infos := fl.Workloads()
			out := make([]metrics.Sample, 0, len(infos))
			for _, wi := range infos {
				out = append(out, metrics.Sample{
					Labels: []metrics.Label{{Name: "workload", Value: wi.Name}},
					Value:  float64(fl.QueueDepth(wi.Name))})
			}
			return out
		})
	s.reg.Collect("moused_fleet_device_charge_joules", "gauge",
		"Stored capacitor energy per fleet device.",
		func() []metrics.Sample {
			out := make([]metrics.Sample, 0, fl.Devices())
			for i := 0; i < fl.Devices(); i++ {
				j, _ := fl.DeviceCharge(i)
				out = append(out, metrics.Sample{
					Labels: []metrics.Label{{Name: "device", Value: strconv.Itoa(i)}},
					Value:  j})
			}
			return out
		})
	s.reg.Collect("moused_fleet_device_served_total", "counter",
		"Inference requests answered per fleet device.",
		func() []metrics.Sample {
			out := make([]metrics.Sample, 0, fl.Devices())
			for i := 0; i < fl.Devices(); i++ {
				out = append(out, metrics.Sample{
					Labels: []metrics.Label{{Name: "device", Value: strconv.Itoa(i)}},
					Value:  float64(fl.DeviceServed(i))})
			}
			return out
		})
	s.reg.Collect("moused_fleet_batches_total", "counter",
		"Batches dispatched to fleet devices.",
		func() []metrics.Sample { return []metrics.Sample{{Value: float64(fl.Batches())}} })
	s.reg.Collect("moused_fleet_batched_samples_total", "counter",
		"Samples dispatched to fleet devices.",
		func() []metrics.Sample { return []metrics.Sample{{Value: float64(fl.BatchedSamples())}} })
	s.reg.Collect("moused_fleet_rejected_total", "counter",
		"Inference requests rejected at admission (queue full).",
		func() []metrics.Sample { return []metrics.Sample{{Value: float64(fl.Rejected())}} })
	return s, nil
}

// Close stops the inference fleet; queued requests fail with 503.
func (s *server) Close() { s.fleet.Stop() }

// fleetSection merges every probe shard — the job-stream devices and
// the inference fleet's devices — into a fresh accumulator and
// snapshots it: the same Section a post-run report would serialize, so
// a scrape and a report read identical numbers by construction.
func (s *server) fleetSection() *probe.Section {
	agg := &probe.Stats{}
	for _, d := range s.devices {
		agg.Merge(d)
	}
	for _, d := range s.fleet.DeviceStats() {
		agg.Merge(d)
	}
	return agg.Section()
}

// handler serves moused's HTTP surface: Prometheus exposition on
// /metrics, liveness on /healthz, the recent-run JSON feed on /runs,
// and the standard pprof handlers under /debug/pprof/.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", s.reg.Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/runs", s.serveRuns)
	mux.HandleFunc("/v1/infer", s.serveInfer)
	mux.HandleFunc("/v1/workloads", s.serveWorkloads)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *server) serveRuns(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	page := runsPage{
		Started:   s.started.Value(),
		Completed: s.completed.Value(),
		Failed:    s.failed.Value(),
		Active:    s.active.Value(),
		Runs:      append([]runStatus{}, s.runs...),
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(page)
}

// inferRequest is the /v1/infer request document.
type inferRequest struct {
	Workload string  `json:"workload"`
	Samples  [][]int `json:"samples"`
}

// inferResponse is the /v1/infer success document: Predictions[i]
// labels Samples[i].
type inferResponse struct {
	Workload    string `json:"workload"`
	Predictions []int  `json:"predictions"`
}

// errorResponse is the JSON error document for the inference API.
type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, doc any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(doc)
}

// serveInfer is POST /v1/infer: decode the sample batch, run it through
// the fleet (which batches it with concurrent requests onto one
// bit-sliced replay), and map fleet errors to HTTP statuses — 400 for
// invalid requests, 429 + Retry-After for backpressure, 503 while
// shutting down.
func (s *server) serveInfer(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST required"})
		return
	}
	var req inferRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxInferBody)).Decode(&req); err != nil {
		s.inferRequests.With("unknown", "invalid").Inc()
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	// Unknown workload names come from clients, so they must not mint
	// new label values.
	label := req.Workload
	if !s.fleet.HasWorkload(label) {
		label = "unknown"
	}
	start := time.Now()
	preds, err := s.fleet.Infer(r.Context(), req.Workload, req.Samples)
	if err != nil {
		var oe *fleet.OverloadedError
		switch {
		case errors.As(err, &oe):
			s.inferRequests.With(label, "rejected").Inc()
			secs := int(math.Ceil(oe.RetryAfter.Seconds()))
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error()})
		case errors.Is(err, fleet.ErrInvalid):
			s.inferRequests.With(label, "invalid").Inc()
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		case errors.Is(err, fleet.ErrStopped):
			s.inferRequests.With(label, "error").Inc()
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
		default:
			s.inferRequests.With(label, "error").Inc()
			writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		}
		return
	}
	s.inferLatency.Observe(time.Since(start).Seconds())
	s.inferRequests.With(label, "ok").Inc()
	s.inferSamples.Add(float64(len(req.Samples)))
	writeJSON(w, http.StatusOK, inferResponse{Workload: req.Workload, Predictions: preds})
}

// serveWorkloads is GET /v1/workloads: the served workloads and their
// batch geometry.
func (s *server) serveWorkloads(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.fleet.Workloads())
}

// record inserts or updates the run history entry for seq.
func (s *server) record(st runStatus) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.runs {
		if s.runs[i].Seq == st.Seq {
			s.runs[i] = st
			return
		}
	}
	s.runs = append([]runStatus{st}, s.runs...)
	if len(s.runs) > maxRecentRuns {
		s.runs = s.runs[:maxRecentRuns]
	}
}

// runOne executes one experiment against one device shard, updating the
// run metrics and the /runs history around the call. The active gauge
// decrements under defer so a panicking experiment cannot inflate it
// permanently.
func (s *server) runOne(name string, device, seq int) {
	s.started.Inc()
	s.active.Add(1)
	defer s.active.Add(-1)
	s.record(runStatus{Seq: seq, Name: name, Device: device, State: "running"})
	start := time.Now()
	rep, err := buildReport(name, bench.Options{Workers: s.workers, Obs: s.devices[device]})
	wall := time.Since(start)
	s.runSeconds.Observe(wall.Seconds())
	st := runStatus{Seq: seq, Name: name, Device: device, WallSeconds: wall.Seconds()}
	if err != nil {
		s.failed.Inc()
		st.State = "failed"
		st.Error = err.Error()
	} else {
		s.completed.Inc()
		st.State = "done"
		st.Rows = reportRows(rep)
	}
	s.record(st)
}

// reportRows sums the row counts over every experiment in the report —
// a multi-experiment job ("all") reports its total, and a report with
// no experiments reports zero instead of panicking.
func reportRows(rep *bench.Report) int {
	total := 0
	for _, e := range rep.Experiments {
		if n := bench.RowCount(e.Rows); n > 0 {
			total += n
		}
	}
	return total
}

// runStream executes the experiment list round-robin across devices:
// job seq runs experiment seq mod len(experiments) on device seq mod
// len(devices). repeat bounds the passes over the list (0 = run until
// ctx is cancelled); interval inserts a pause between jobs.
func (s *server) runStream(ctx context.Context, experiments []string, repeat int, interval time.Duration) {
	seq := 0
	for pass := 0; repeat == 0 || pass < repeat; pass++ {
		for _, name := range experiments {
			if ctx.Err() != nil {
				return
			}
			s.runOne(name, seq%len(s.devices), seq)
			seq++
			if testHookAfterExperiment != nil {
				testHookAfterExperiment(seq)
			}
			if interval > 0 {
				select {
				case <-ctx.Done():
					return
				case <-time.After(interval):
				}
			}
		}
	}
}

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// reqClass is one kind of request in a serve mix.
type reqClass struct {
	workload string
	samples  int
	weight   int
}

// serveSpec is one served workload: moused's power mode, the open-loop
// arrival rate, and the request mix, majority class first.
type serveSpec struct {
	power string
	rate  float64
	mix   []reqClass
}

// serveSparse: near-empty batches on continuous power, so HTTP/JSON,
// linger and the fixed cost of a replay dominate and no charge model
// runs.
var serveSparse = serveSpec{power: "continuous", rate: 40, mix: []reqClass{
	{workload: "svm-adult", samples: 1, weight: 3},
	{workload: "bnn-hidden16", samples: 8, weight: 1},
}}

// serveHarvested: the default harvested fleet, where every 64-sample
// batch outruns the capacitor window and stalls for recharge, so
// charge-ranked placement and stalls dominate.
var serveHarvested = serveSpec{power: "harvested", rate: 15, mix: []reqClass{
	{workload: "bnn-hidden16", samples: 64, weight: 3},
	{workload: "svm-adult", samples: 8, weight: 1},
}}

const (
	// conns is the client's connection and worker count: the host has
	// two CPUs, and moused shares them.
	conns = 2
	// closedShare is the part of the measured time spent in the
	// closed-loop throughput phase; the rest is the open loop.
	closedShare = 0.25
	// minTimedRequests is the fewest open-loop requests a run may time:
	// enough for ten beyond the 95th percentile.
	minTimedRequests = 200
	// warmupPerClass is the warm-up burst per request class.
	warmupPerClass = 8
	// poolSamples is how many held-out samples each workload's pool
	// holds; requests draw seeded windows from it.
	poolSamples = 2048
)

// request is one pre-encoded /v1/infer call and its golden labels.
type request struct {
	class   int
	n       int
	samples [][]int
	body    []byte
	want    []int
}

// outcome is one sent request, timed from when it was due.
type outcome struct {
	due, sent, done time.Time
	err             error
}

func (o outcome) latencyMS() float64 { return ms(o.done.Sub(o.due)) }

// checkMix enforces the mix rule: the majority class is at least three
// quarters of the requests, so the median falls inside one class.
func (s serveSpec) checkMix() error {
	total := 0
	for _, c := range s.mix {
		total += c.weight
	}
	if 4*s.mix[0].weight < 3*total {
		return fmt.Errorf("majority class %s is %d/%d of the mix, below 3/4", s.mix[0].workload, s.mix[0].weight, total)
	}
	return nil
}

// buildRequests draws n requests from the seed: the class order is a
// seeded shuffle within each block of one mix period, and each request
// takes a seeded window of its workload's pool. Bodies are encoded and
// golden labels looked up here, before anything is timed.
func buildRequests(s serveSpec, seed int64, n int, models map[string]*hotModel) ([]*request, error) {
	rng := rand.New(rand.NewSource(seed))
	var period []int
	for ci, c := range s.mix {
		for i := 0; i < c.weight; i++ {
			period = append(period, ci)
		}
	}
	reqs := make([]*request, 0, n)
	for len(reqs) < n {
		rng.Shuffle(len(period), func(i, j int) { period[i], period[j] = period[j], period[i] })
		for _, ci := range period {
			c := s.mix[ci]
			m := models[c.workload]
			off := rng.Intn(len(m.pool) - c.samples + 1)
			body, err := json.Marshal(struct {
				Workload string  `json:"workload"`
				Samples  [][]int `json:"samples"`
			}{c.workload, m.pool[off : off+c.samples]})
			if err != nil {
				return nil, err
			}
			reqs = append(reqs, &request{class: ci, n: c.samples, samples: m.pool[off : off+c.samples], body: body,
				want: m.labels[off : off+c.samples]})
		}
	}
	return reqs[:n], nil
}

// sender submits one request on the given worker's connection.
type sender func(worker int, q *request) ([]int, error)

// verify checks a reply against the request's golden labels.
func verify(q *request, preds []int, err error) error {
	if err != nil {
		return err
	}
	if !slices.Equal(preds, q.want) {
		return fmt.Errorf("predictions differ from the offline classifier")
	}
	return nil
}

// openLoop sends reqs on a fixed schedule, one every interval, from
// conns workers: a worker takes the next request, waits until it is
// due, sends it and waits for the reply. A request that finds both
// workers busy goes out late, and its latency, timed from the due time,
// includes the wait.
func openLoop(send sender, reqs []*request, interval time.Duration, tr *tracer, parent int, idBase int64) []outcome {
	out := make([]outcome, len(reqs))
	start := time.Now().Add(20 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				time.Sleep(time.Until(due))
				sent := time.Now()
				preds, err := send(w, reqs[i])
				done := time.Now()
				out[i] = outcome{due: due, sent: sent, done: done, err: verify(reqs[i], preds, err)}
				if tr != nil {
					id := idBase + int64(i)
					tr.record("loadgen.wait", parent, id, due, sent)
					tr.record("http.infer", parent, id, sent, done)
				}
			}
		}(w)
	}
	wg.Wait()
	return out
}

// closedLoop has every worker send requests back to back, cycling
// through reqs, until d has passed. It returns the samples classified
// correctly per second, and the number of requests sent and failed.
// The rate is the median over the phase's whole seconds, each request's
// samples spread evenly over the time it was in flight, so that a
// passing stall on the host moves one second's rate and not the result.
func closedLoop(send sender, reqs []*request, d time.Duration) (float64, int, int) {
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	windows := make([][]float64, conns) // per worker, samples per whole second
	sent := make([]int, conns)
	failed := make([]int, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		windows[w] = make([]float64, int(d/time.Second))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				q := reqs[int(next.Add(1)-1)%len(reqs)]
				t0 := time.Now()
				preds, err := send(w, q)
				t1 := time.Now()
				sent[w]++
				if verify(q, preds, err) != nil {
					failed[w]++
					continue
				}
				spread(windows[w], t0.Sub(start), t1.Sub(start), float64(q.n))
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < conns; w++ {
		for k, v := range windows[w] {
			windows[0][k] += v
		}
	}
	return median(windows[0]), sent[0] + sent[1], failed[0] + failed[1]
}

// spread adds n to the one-second windows in proportion to how much of
// [from, to) each covers.
func spread(windows []float64, from, to time.Duration, n float64) {
	span := float64(to - from)
	if span <= 0 {
		return
	}
	for k := int(from / time.Second); k < len(windows) && time.Duration(k)*time.Second < to; k++ {
		lo := max(from, time.Duration(k)*time.Second)
		hi := min(to, time.Duration(k+1)*time.Second)
		windows[k] += n * float64(hi-lo) / span
	}
}

// warmup sends warmupPerClass requests of each class, conns at a time,
// so that more than one device compiles its engines before timing.
func warmup(send sender, s serveSpec, reqs []*request) (int, int) {
	var byClass [][]*request
	for ci := range s.mix {
		var qs []*request
		for _, q := range reqs {
			if q.class == ci && len(qs) < warmupPerClass {
				qs = append(qs, q)
			}
		}
		byClass = append(byClass, qs)
	}
	sent, failed := 0, 0
	for _, qs := range byClass {
		for i := 0; i < len(qs); i += conns {
			var wg sync.WaitGroup
			errs := make([]error, conns)
			for w := 0; w < conns && i+w < len(qs); w++ {
				wg.Add(1)
				sent++
				go func(w int) {
					defer wg.Done()
					preds, err := send(w, qs[i+w])
					errs[w] = verify(qs[i+w], preds, err)
				}(w)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					failed++
					fmt.Fprintln(os.Stderr, "perfbench: warm-up request:", err)
				}
			}
		}
	}
	return sent, failed
}

// ---- moused over HTTP -----------------------------------------------------

// daemon is one running moused.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	clients [conns]*http.Client
	stopped bool
}

// startDaemon execs moused on an OS-assigned port and waits for the
// address it writes to addrFile.
func startDaemon(bin, addrFile, powerMode string) (*daemon, error) {
	_ = os.Remove(addrFile)
	cmd := exec.Command(bin, "-addr-file", addrFile, "-fleet-power", powerMode)
	cmd.Stderr = os.Stderr
	// moused must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd}
	for w := range d.clients {
		d.clients[w] = &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	}
	for deadline := time.Now().Add(60 * time.Second); ; {
		b, err := os.ReadFile(addrFile)
		if err == nil && bytes.HasSuffix(b, []byte("\n")) {
			d.base = "http://" + strings.TrimSpace(string(b))
			return d, nil
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("moused wrote no address to %s", addrFile)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts moused down and waits for it to exit; later calls do
// nothing.
func (d *daemon) stop() {
	if d.stopped {
		return
	}
	d.stopped = true
	for _, c := range d.clients {
		c.CloseIdleConnections()
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = d.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
}

func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

// send posts one request on worker w's keep-alive connection. Any
// status but 200 is an error, 429 included.
func (d *daemon) send(w int, q *request) ([]int, error) {
	resp, err := d.clients[w].Post(d.base+"/v1/infer", "application/json", bytes.NewReader(q.body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	var out struct {
		Predictions []int `json:"predictions"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, err
	}
	return out.Predictions, nil
}

// scrape reads /metrics into a map from series (name plus labels, as
// exposed) to value, and returns how long the GET took.
func (d *daemon) scrape() (map[string]float64, float64, error) {
	t0 := time.Now()
	resp, err := d.clients[0].Get(d.base + "/metrics")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	vals := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		vals[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	return vals, msSince(t0), nil
}

// family sums every series of the named metric whose labels contain
// all of the given name="value" pairs.
func family(vals map[string]float64, name string, labels ...string) float64 {
	total := 0.0
	for series, v := range vals {
		base, rest, _ := strings.Cut(series, "{")
		if base != name {
			continue
		}
		match := true
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				match = false
			}
		}
		if match {
			total += v
		}
	}
	return total
}

// waitIdle waits until moused's own start-up work is done: its CPU time
// stops advancing for two consecutive 50 ms windows.
func waitIdle(pid string) error {
	prev, err := cpuTicks(pid)
	if err != nil {
		return err
	}
	quiet := 0
	for deadline := time.Now().Add(30 * time.Second); quiet < 2; {
		if time.Now().After(deadline) {
			return fmt.Errorf("moused stayed busy for 30 s after start-up")
		}
		time.Sleep(50 * time.Millisecond)
		cur, err := cpuTicks(pid)
		if err != nil {
			return err
		}
		if cur == prev {
			quiet++
		} else {
			quiet = 0
		}
		prev = cur
	}
	return nil
}

// cpuTicks is a process's user plus system CPU time in clock ticks.
func cpuTicks(pid string) (uint64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%s/stat", pid)
	}
	u, err1 := strconv.ParseUint(f[11], 10, 64)
	s, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%s/stat", pid)
	}
	return u + s, nil
}

// ---- the serve workloads --------------------------------------------------

func runServe(r *run, s serveSpec) (*result, error) {
	if err := s.checkMix(); err != nil {
		return nil, err
	}
	res := &result{}
	var workloads []string
	for _, c := range s.mix {
		workloads = append(workloads, c.workload)
	}
	if r.trace {
		// Measured before anything else in this process trains a model.
		compile, err := compileMS(workloads)
		if err != nil {
			return nil, err
		}
		res.set("workload.compile_ms", compile)
	}

	models := map[string]*hotModel{}
	for _, wl := range workloads {
		m, err := loadHotModel(wl, poolSamples)
		if err != nil {
			return nil, err
		}
		models[wl] = m
	}
	closed := time.Duration(math.Round(r.seconds*closedShare)) * time.Second
	if closed < time.Second {
		closed = time.Second
	}
	open := time.Duration(r.seconds*float64(time.Second)) - closed
	if r.trace {
		open = time.Duration(r.seconds * float64(time.Second))
	}
	interval := time.Duration(float64(time.Second) / s.rate)
	nOpen := int(open / interval)
	if nOpen < minTimedRequests {
		return nil, fmt.Errorf("%v of open loop at %g req/s gives %d requests, fewer than %d", open, s.rate, nOpen, minTimedRequests)
	}
	reqs, err := buildRequests(s, r.seed, nOpen, models)
	if err != nil {
		return nil, err
	}
	count := func(errs ...error) {
		for _, err := range errs {
			res.Attempted++
			if err != nil {
				res.Failed++
				fmt.Fprintln(os.Stderr, "perfbench: request failed:", err)
			}
		}
	}

	// Set-up: exec moused and wait until both served workloads have
	// answered, setupRuns times from cold; the last daemon stays up.
	firstOf := make([]*request, len(s.mix))
	for _, q := range reqs {
		if firstOf[q.class] == nil {
			firstOf[q.class] = q
		}
	}
	addrFile := r.out + "/moused.addr"
	var d *daemon
	setups := make([]float64, setupRuns)
	for k := range setups {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		if d, err = startDaemon(r.moused, addrFile, s.power); err != nil {
			return nil, err
		}
		errs := make([]error, len(firstOf))
		var wg sync.WaitGroup
		for ci, q := range firstOf {
			wg.Add(1)
			go func(ci int, q *request) {
				defer wg.Done()
				preds, err := d.send(ci%conns, q)
				errs[ci] = verify(q, preds, err)
			}(ci, q)
		}
		wg.Wait()
		setups[k] = time.Since(t0).Seconds()
		count(errs...)
	}
	defer d.stop()
	if err := waitIdle(d.pid()); err != nil {
		return nil, err
	}
	sent, failed := warmup(d.send, s, reqs)
	res.Attempted += sent
	res.Failed += failed

	// Open loop; /metrics deltas span exactly this phase.
	before, scrapeMS, err := d.scrape()
	if err != nil {
		return nil, err
	}
	scrapes := []float64{scrapeMS}
	var plain, traced []outcome
	if r.trace {
		plain = openLoop(d.send, reqs[:nOpen/2], interval, nil, 0, 0)
		root := r.tr.begin("loadgen.open", 0, 0)
		traced = openLoop(d.send, reqs[nOpen/2:], interval, r.tr, root, int64(nOpen/2))
		r.tr.end(root)
	} else {
		plain = openLoop(d.send, reqs, interval, nil, 0, 0)
	}
	after, scrapeMS, err := d.scrape()
	if err != nil {
		return nil, err
	}
	scrapes = append(scrapes, scrapeMS)
	all := append(append([]outcome(nil), plain...), traced...)
	var lat, late, rtt []float64
	for _, o := range all {
		count(o.err)
		lat = append(lat, o.latencyMS())
		late = append(late, ms(o.sent.Sub(o.due)))
		rtt = append(rtt, ms(o.done.Sub(o.sent)))
	}
	q := len(lat) / 4
	backlog := median(lat[len(lat)-q:]) / median(lat[:q])
	if backlog > 1+p50Bound {
		fmt.Fprintf(os.Stderr, "perfbench: backlogged run: last-quarter p50 is %.2fx the first quarter's\n", backlog)
	}

	if !r.trace {
		samplesPerS, sent, failed := closedLoop(d.send, reqs, closed)
		res.Attempted += sent
		res.Failed += failed
		rss, err := peakRSSMiB(d.pid())
		if err != nil {
			return nil, err
		}
		res.set("setup_s", median(setups))
		res.set("p50_ms", median(lat))
		res.set("p95_ms", quantile(lat, 0.95))
		res.set("throughput_per_s", samplesPerS)
		res.set("rss_mb", rss)
		return res, nil
	}

	for i := 0; i < 5; i++ {
		_, scrapeMS, err := d.scrape()
		if err != nil {
			return nil, err
		}
		scrapes = append(scrapes, scrapeMS)
	}
	d.stop()
	delta := func(name string, labels ...string) float64 {
		return family(after, name, labels...) - family(before, name, labels...)
	}
	batches := delta("moused_fleet_batches_total")
	okReqs := delta("moused_infer_requests_total", `outcome="ok"`)
	srvLat := delta("moused_infer_latency_seconds_sum") / delta("moused_infer_latency_seconds_count") * 1e3
	shareMax, servedTotal := 0.0, delta("moused_fleet_device_served_total")
	for i := 0; ; i++ {
		label := fmt.Sprintf(`device="%d"`, i)
		if _, ok := after[`moused_fleet_device_served_total{`+label+`}`]; !ok {
			break
		}
		shareMax = math.Max(shareMax, delta("moused_fleet_device_served_total", label)/servedTotal)
	}
	res.set("moused.rtt_ms", median(rtt))
	res.set("moused.overhead_ms", mean(rtt)-srvLat)
	res.set("fleet.batches", batches)
	res.set("fleet.requests_per_batch", okReqs/batches)
	res.set("fleet.samples_per_batch", delta("moused_fleet_batched_samples_total")/batches)
	res.set("fleet.rejected", delta("moused_fleet_rejected_total"))
	res.set("fleet.stall_ms_per_batch", delta("mouse_probe_outage_seconds_total")*1e3/batches)
	res.set("fleet.outages", delta("mouse_probe_outages_total"))
	res.set("fleet.device_share_max", shareMax)
	res.set("metrics.scrape_ms", median(scrapes))
	res.set("loadgen.late_ms", quantile(late, 0.95))
	res.set("loadgen.late_max_ms", quantile(late, 1))
	res.set("loadgen.backlog_ratio", backlog)
	var plainLat, tracedLat []float64
	for _, o := range plain {
		plainLat = append(plainLat, o.latencyMS())
	}
	for _, o := range traced {
		tracedLat = append(tracedLat, o.latencyMS())
	}
	res.set("trace.overhead_p50_ms", median(tracedLat)-median(plainLat))

	// The fleet without HTTP: the same schedule through fleet.Infer.
	infer, stop, err := inProcessFleet(s.power)
	if err != nil {
		return nil, err
	}
	fsend := func(_ int, q *request) ([]int, error) {
		return infer(s.mix[q.class].workload, q.samples)
	}
	sent, failed = warmup(fsend, s, reqs)
	res.Attempted += sent
	res.Failed += failed
	root := r.tr.begin("fleet.open", 0, 0)
	inproc := openLoop(fsend, reqs[:nOpen/4], interval, r.tr, root, 1<<32)
	r.tr.end(root)
	stop()
	var inLat []float64
	for _, o := range inproc {
		count(o.err)
		inLat = append(inLat, o.latencyMS())
	}
	res.set("fleet.infer_ms", median(inLat))

	for _, wl := range []struct {
		name  string
		sizes []int
	}{{"svm-adult", []int{1, 8, 64}}, {"bnn-hidden16", []int{8, 64, 4096}}} {
		sp := r.tr.begin("replay."+wl.name, 0, 0)
		got, err := replayProbe(wl.name, wl.sizes, 15, r.tr, sp)
		r.tr.end(sp)
		if err != nil {
			return nil, err
		}
		for key, v := range got {
			res.set("replay."+wl.name+"."+key+"_ms", v)
		}
	}
	return res, nil
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"time"
)

// setupRuns is how many times a run sets up from cold; setup_s is the
// median. Serve workloads launch moused that often. Sweeps time their
// first operation in their own process and in setupRuns-1 fresh child
// processes, and their rss_mb is the median of those processes' peak
// resident sets, which damps the garbage collector's timing.
const setupRuns = 3

// childReport is what a -setup-child process prints: its set-up time
// and a digest of its first operation, which the parent checks against
// its own.
type childReport struct {
	Seconds    float64 `json:"seconds"`
	RSSMiB     float64 `json:"rss_mib"`
	Work       uint64  `json:"work"`
	Equivalent bool    `json:"equivalent"`
}

// runSetupChild performs one cold first operation of the named sweep
// and prints its digest.
func runSetupChild(name string) error {
	var rep childReport
	switch name {
	case "sim-sweep":
		o, err := newSimGrid().run(false, nil, 0)
		if err != nil {
			return err
		}
		rep = childReport{Work: o.instructions(), Equivalent: true}
	case "crash-sweep":
		o, err := newCrashPair().sweep(false, nil, 0)
		if err != nil {
			return err
		}
		rep = childReport{Work: uint64(o.points), Equivalent: o.equivalent && o.maxReplays <= 1}
	default:
		return fmt.Errorf("no setup child for %q", name)
	}
	rep.Seconds = time.Since(processStart).Seconds()
	rss, err := peakRSSMiB("self")
	if err != nil {
		return err
	}
	rep.RSSMiB = rss
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// coldStarts returns the set-up seconds and peak resident MiB of this
// process, which has just finished its first operation, followed by
// those of setupRuns-1 fresh child processes, and the children's
// digests for checking.
func coldStarts(name string) (secs, rss []float64, digests []childReport, err error) {
	own, err := peakRSSMiB("self")
	if err != nil {
		return nil, nil, nil, err
	}
	secs, rss = []float64{time.Since(processStart).Seconds()}, []float64{own}
	self, err := os.Executable()
	if err != nil {
		return nil, nil, nil, err
	}
	for i := 1; i < setupRuns; i++ {
		var out bytes.Buffer
		cmd := exec.Command(self, "-setup-child", name)
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, nil, nil, fmt.Errorf("%s setup child: %w", name, err)
		}
		var rep childReport
		if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
			return nil, nil, nil, fmt.Errorf("%s setup child output: %w", name, err)
		}
		secs, rss = append(secs, rep.Seconds), append(rss, rep.RSSMiB)
		digests = append(digests, rep)
	}
	return secs, rss, digests, nil
}

// timedLoop calls op back to back until d has passed and returns each
// call's milliseconds.
func timedLoop(d time.Duration, op func() error) ([]float64, error) {
	var lat []float64
	for start := time.Now(); time.Since(start) < d; {
		t0 := time.Now()
		if err := op(); err != nil {
			return nil, err
		}
		lat = append(lat, msSince(t0))
	}
	return lat, nil
}

// ---- sim-sweep ------------------------------------------------------------

func runSimSweep(r *run) (*result, error) {
	res := &result{}
	g := newSimGrid()
	ref, err := g.run(false, nil, 0)
	if err != nil {
		return nil, err
	}
	setups, rss, digests, err := coldStarts("sim-sweep")
	if err != nil {
		return nil, err
	}
	for _, d := range digests {
		res.Attempted++
		if d.Work != ref.instructions() {
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: setup grid simulated %d instructions, reference %d\n", d.Work, ref.instructions())
		}
	}

	// One phase of grids; each must equal the reference grid.
	var instr uint64
	var last *gridOutcome
	var specMS [][]float64
	var sonicMS []float64
	phase := func(d time.Duration, tr *tracer) ([]float64, error) {
		return timedLoop(d, func() error {
			root := tr.begin("sim.grid", 0, int64(res.Attempted))
			o, err := g.run(false, tr, root)
			tr.end(root)
			if err != nil {
				return err
			}
			res.Attempted++
			if !o.equal(ref) {
				res.Failed++
				fmt.Fprintln(os.Stderr, "perfbench: a grid's results differ from the first grid's")
			}
			instr += o.instructions()
			last = o
			if tr != nil {
				specMS = append(specMS, o.specMS)
				sonicMS = append(sonicMS, o.sonicMS)
			}
			return nil
		})
	}

	total := time.Duration(r.seconds * float64(time.Second))
	if !r.trace {
		lat, err := phase(total, nil)
		if err != nil {
			return nil, err
		}
		if err := checkStepping(g, last, res); err != nil {
			return nil, err
		}
		res.set("setup_s", median(setups))
		res.set("p50_ms", median(lat))
		res.set("p95_ms", quantile(lat, 0.95))
		res.set("throughput_per_s", float64(instr)/(sum(lat)/1e3))
		res.set("rss_mb", median(rss))
		return res, nil
	}

	plain, err := phase(total/2, nil)
	if err != nil {
		return nil, err
	}
	traced, err := phase(total/2, r.tr)
	if err != nil {
		return nil, err
	}
	if err := checkStepping(g, last, res); err != nil {
		return nil, err
	}
	for i, s := range g.specSlugs() {
		col := make([]float64, len(specMS))
		for j := range specMS {
			col[j] = specMS[j][i]
		}
		res.set("sim.run_ms."+s, median(col))
	}
	res.set("sim.instructions", float64(ref.instructions()))
	res.set("sim.restarts", float64(ref.restarts()))
	res.set("baseline.sonic_ms", median(sonicMS))
	pre := make([]float64, 5)
	for i := range pre {
		sp := r.tr.begin("energy.precost", 0, 0)
		if pre[i], err = g.precostMS(); err != nil {
			return nil, err
		}
		r.tr.end(sp)
	}
	res.set("energy.precost_ms", median(pre))
	res.set("trace.overhead_p50_ms", median(traced)-median(plain))
	return res, nil
}

// checkStepping reruns the grid on the per-instruction stepping oracle
// and compares it with the last timed grid.
func checkStepping(g *simGrid, last *gridOutcome, res *result) error {
	oracle, err := g.run(true, nil, 0)
	if err != nil {
		return err
	}
	res.Attempted++
	if last == nil || !oracle.equal(last) {
		res.Failed++
		fmt.Fprintln(os.Stderr, "perfbench: the stepping oracle disagrees with the last grid")
	}
	return nil
}

// ---- crash-sweep ----------------------------------------------------------

func runCrashSweep(r *run) (*result, error) {
	res := &result{}
	c := newCrashPair()
	var points int
	var observed *sweepOutcome // the last traced sweep
	check := func(o *sweepOutcome) {
		res.Attempted++
		if !o.equivalent || o.maxReplays > 1 {
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: sweep not crash-equivalent (all equivalent %v, max replays %d)\n",
				o.equivalent, o.maxReplays)
		}
	}
	first, err := c.sweep(false, nil, 0)
	if err != nil {
		return nil, err
	}
	check(first)
	setups, rss, digests, err := coldStarts("crash-sweep")
	if err != nil {
		return nil, err
	}
	for _, d := range digests {
		res.Attempted++
		if !d.Equivalent || d.Work != uint64(first.points) {
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: setup sweep checked %d points (equivalent %v), reference %d\n",
				d.Work, d.Equivalent, first.points)
		}
	}

	phase := func(d time.Duration, tr *tracer) ([]float64, error) {
		return timedLoop(d, func() error {
			root := tr.begin("fault.sweep_pair", 0, int64(res.Attempted))
			o, err := c.sweep(tr != nil, tr, root)
			tr.end(root)
			if err != nil {
				return err
			}
			check(o)
			points += o.points
			if o.stats != nil {
				observed = o
			}
			return nil
		})
	}

	total := time.Duration(r.seconds * float64(time.Second))
	if !r.trace {
		lat, err := phase(total, nil)
		if err != nil {
			return nil, err
		}
		res.set("setup_s", median(setups))
		res.set("p50_ms", median(lat))
		res.set("p95_ms", quantile(lat, 0.95))
		res.set("throughput_per_s", float64(points)/(sum(lat)/1e3))
		res.set("rss_mb", median(rss))
		return res, nil
	}

	plain, err := phase(total/2, nil)
	if err != nil {
		return nil, err
	}
	traced, err := phase(total/2, r.tr)
	if err != nil {
		return nil, err
	}
	res.set("fault.instr_per_injection", float64(observed.stats.Instructions)/float64(observed.points))
	res.set("array.tile_writes_per_injection", float64(tileWrites(observed.stats))/float64(observed.points))
	golden := make([]float64, 3)
	for i := range golden {
		sp := r.tr.begin("fault.golden", 0, 0)
		if golden[i], err = c.goldenMS(); err != nil {
			return nil, err
		}
		r.tr.end(sp)
	}
	res.set("fault.golden_ms", median(golden))
	inj, err := c.injectProbe(4, r.tr, 0)
	if err != nil {
		return nil, err
	}
	res.Attempted += len(inj)
	decile := len(inj) / 10
	res.set("fault.inject_us", median(inj))
	res.set("fault.inject_us_first_decile", median(inj[:decile]))
	res.set("fault.inject_us_last_decile", median(inj[len(inj)-decile:]))
	res.set("trace.overhead_p50_ms", median(traced)-median(plain))
	return res, nil
}

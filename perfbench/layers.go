package main

// Every direct call into the program's packages lives in this file, so
// the rest of the benchmark only talks to moused over HTTP and to the
// operating system. Each function here is one measured operation or one
// per-layer probe; the callers time it and wrap it in spans.

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"mouse/internal/baseline"
	"mouse/internal/bench"
	"mouse/internal/energy"
	"mouse/internal/fault"
	"mouse/internal/fleet"
	"mouse/internal/mtj"
	"mouse/internal/power"
	"mouse/internal/probe"
	"mouse/internal/sim"
	"mouse/internal/workload"
)

// ---- served workloads (internal/workload) ---------------------------------

// hotModel is one served workload's request pool: samples from its
// held-out split and their golden labels from the offline batch
// classifier.
type hotModel struct {
	pool   [][]int
	labels []int
}

// loadHotModel draws poolN samples of a served workload and labels them
// offline, one batch at a time (the first call in a process trains the
// model and compiles the engine).
func loadHotModel(name string, poolN int) (*hotModel, error) {
	hb, err := workload.HotBatchByName(name)
	if err != nil {
		return nil, err
	}
	cls, err := hb.NewBatched()
	if err != nil {
		return nil, fmt.Errorf("compiling %s: %w", name, err)
	}
	m := &hotModel{pool: hb.Samples(poolN)}
	for off := 0; off < len(m.pool); off += hb.Capacity {
		preds, err := cls(m.pool[off:min(off+hb.Capacity, len(m.pool))])
		if err != nil {
			return nil, err
		}
		m.labels = append(m.labels, preds...)
	}
	return m, nil
}

// compileMS times the first NewBatched call of each served workload in
// a process that has not trained them yet: model training plus engine
// compile, the work a fresh device pays before its first batch.
func compileMS(names []string) (float64, error) {
	start := time.Now()
	for _, name := range names {
		hb, err := workload.HotBatchByName(name)
		if err != nil {
			return 0, err
		}
		if _, err := hb.NewBatched(); err != nil {
			return 0, err
		}
	}
	return msSince(start), nil
}

// replayProbe times the bit-sliced batch classifier at several batch
// sizes and the sequential oracle at one lane width, reps calls each,
// and returns median milliseconds keyed "<size>" and "seq".
func replayProbe(name string, sizes []int, reps int, tr *tracer, parent int) (map[string]float64, error) {
	hb, err := workload.HotBatchByName(name)
	if err != nil {
		return nil, err
	}
	batched, err := hb.NewBatched()
	if err != nil {
		return nil, err
	}
	seq, err := hb.NewSequential()
	if err != nil {
		return nil, err
	}
	maxN := hb.LaneWidth
	for _, n := range sizes {
		if n > maxN {
			maxN = n
		}
	}
	pool := hb.Samples(maxN)
	out := map[string]float64{}
	timeIt := func(key string, cls workload.Classifier, samples [][]int) error {
		want, err := batched(samples)
		if err != nil {
			return err
		}
		ms := make([]float64, reps)
		for i := range ms {
			sp := tr.begin("replay."+name+"."+key, parent, 0)
			t0 := time.Now()
			got, err := cls(samples)
			ms[i] = msSince(t0)
			tr.end(sp)
			if err != nil {
				return err
			}
			if !slices.Equal(got, want) {
				return fmt.Errorf("replay %s.%s: predictions differ from the batched classifier", name, key)
			}
		}
		out[key] = median(ms)
		return nil
	}
	for _, n := range sizes {
		if err := timeIt(fmt.Sprint(n), batched, pool[:n]); err != nil {
			return nil, err
		}
	}
	if err := timeIt("seq", seq, pool[:hb.LaneWidth]); err != nil {
		return nil, err
	}
	return out, nil
}

// ---- in-process fleet (internal/fleet) ------------------------------------

// inProcessFleet starts the fleet moused would run for the power mode
// (the default configuration with only the mode changed, as moused's
// -fleet-power flag does) and returns its Infer and Stop.
func inProcessFleet(mode string) (func(workload string, samples [][]int) ([]int, error), func(), error) {
	cfg := fleet.DefaultConfig()
	cfg.Mode = fleet.PowerMode(mode)
	f, err := fleet.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	infer := func(wl string, samples [][]int) ([]int, error) {
		return f.Infer(context.Background(), wl, samples)
	}
	return infer, f.Stop, nil
}

// ---- Fig. 9 grid (internal/sim, energy, power, baseline) ------------------

// simGrid is the Fig. 9 latency-vs-power grid on the Modern STT
// configuration: every benchmark spec at every constant power, plus the
// SONIC baselines.
type simGrid struct {
	cfg    *mtj.Config
	specs  []workload.Spec
	powers []float64
}

func newSimGrid() *simGrid {
	return &simGrid{cfg: mtj.ModernSTT(), specs: workload.Benchmarks(), powers: bench.Powers()}
}

// gridOutcome is one pass over the grid.
type gridOutcome struct {
	mouse []sim.Result      // spec-major, power-minor
	sonic []baseline.Result // baseline-major, power-minor
	// Host time per spec summed over its powers, and for all SONIC runs.
	specMS  []float64
	sonicMS float64
}

// instructions is Σ Result.Instructions over the MOUSE runs.
func (o *gridOutcome) instructions() (n uint64) {
	for _, r := range o.mouse {
		n += r.Instructions
	}
	return n
}

// restarts is Σ Result.Restarts over the MOUSE runs.
func (o *gridOutcome) restarts() (n uint64) {
	for _, r := range o.mouse {
		n += r.Restarts
	}
	return n
}

// equal reports whether two passes produced identical results.
func (o *gridOutcome) equal(p *gridOutcome) bool {
	if len(o.mouse) != len(p.mouse) || len(o.sonic) != len(p.sonic) {
		return false
	}
	for i := range o.mouse {
		if o.mouse[i] != p.mouse[i] {
			return false
		}
	}
	for i := range o.sonic {
		if o.sonic[i] != p.sonic[i] {
			return false
		}
	}
	return true
}

// run makes one pass on the calling goroutine. stepping pins every run
// to the per-instruction oracle path.
func (g *simGrid) run(stepping bool, tr *tracer, parent int) (*gridOutcome, error) {
	o := &gridOutcome{specMS: make([]float64, len(g.specs))}
	for si, s := range g.specs {
		sp := tr.begin("sim.spec."+slug(s.Name), parent, 0)
		t0 := time.Now()
		for _, p := range g.powers {
			r := sim.NewRunner(energy.NewModel(g.cfg))
			r.ForceStepping = stepping
			h := power.NewHarvester(power.Constant{W: p}, g.cfg.CapC, g.cfg.CapVMin, g.cfg.CapVMax)
			res, err := r.Run(s.Stream(), h)
			if err != nil {
				return nil, fmt.Errorf("%s at %g W: %w", s.Name, p, err)
			}
			o.mouse = append(o.mouse, res)
		}
		o.specMS[si] = msSince(t0)
		tr.end(sp)
	}
	sp := tr.begin("baseline.sonic", parent, 0)
	t0 := time.Now()
	for _, mk := range []func() *baseline.SONIC{baseline.SONICMNIST, baseline.SONICHAR} {
		for _, p := range g.powers {
			res, err := mk().Run(power.Constant{W: p})
			if err != nil {
				return nil, err
			}
			o.sonic = append(o.sonic, res)
		}
	}
	o.sonicMS = msSince(t0)
	tr.end(sp)
	return o, nil
}

// specSlugs names the grid's specs as metric-name suffixes.
func (g *simGrid) specSlugs() []string {
	out := make([]string, len(g.specs))
	for i, s := range g.specs {
		out[i] = slug(s.Name)
	}
	return out
}

// precostMS times energy.PrecostRuns over every spec's run-length
// encoded stream.
func (g *simGrid) precostMS() (float64, error) {
	m := energy.NewModel(g.cfg)
	start := time.Now()
	for _, s := range g.specs {
		rs, ok := s.Stream().(sim.RunStream)
		if !ok {
			return 0, fmt.Errorf("%s: stream has no run-length encoding", s.Name)
		}
		if c := energy.PrecostRuns(m, rs.Runs()); c.Ops() == 0 {
			return 0, fmt.Errorf("%s: empty precost table", s.Name)
		}
	}
	return msSince(start), nil
}

// slug lowercases a spec name into letters, digits and dashes.
func slug(name string) string {
	var b strings.Builder
	dash := false
	for _, r := range strings.ToLower(name) {
		if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' {
			b.WriteRune(r)
			dash = false
		} else if !dash && b.Len() > 0 {
			b.WriteByte('-')
			dash = true
		}
	}
	return strings.TrimSuffix(b.String(), "-")
}

// ---- crash-equivalence sweeps (internal/fault, controller, array) ---------

// crashPair is the exhaustive sweep pair: tiny-bnn and tiny-fft on the
// Modern STT configuration.
type crashPair struct {
	ws []fault.Workload
}

func newCrashPair() crashPair {
	cfg := mtj.ModernSTT()
	return crashPair{ws: []fault.Workload{fault.TinyBNN(cfg), fault.TinyFFT(cfg)}}
}

// sweepOutcome is one operation: both exhaustive sweeps.
type sweepOutcome struct {
	points     int
	equivalent bool   // every point crash-equivalent
	maxReplays uint64 // worst re-executions after one outage
	stats      *probe.Section
}

// sweep runs both exhaustive sweeps on one worker. With observe, a
// probe.Stats observer counts the injected runs' instructions and tile
// writes.
func (c crashPair) sweep(observe bool, tr *tracer, parent int) (*sweepOutcome, error) {
	o := &sweepOutcome{equivalent: true}
	var stats *probe.Stats
	opts := fault.Options{Workers: 1}
	if observe {
		stats = &probe.Stats{}
		opts.Obs = stats
	}
	for _, w := range c.ws {
		sp := tr.begin("fault.sweep."+w.Name, parent, 0)
		rep, err := fault.Sweep(w, opts)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		o.points += rep.Points
		o.equivalent = o.equivalent && rep.AllEquivalent()
		if rep.MaxReplays > o.maxReplays {
			o.maxReplays = rep.MaxReplays
		}
	}
	if stats != nil {
		o.stats = stats.Section()
	}
	return o, nil
}

// tileWrites sums a section's per-tile write counts.
func tileWrites(s *probe.Section) (n uint64) {
	for _, t := range s.TileWrites {
		n += t.Writes
	}
	return n
}

// goldenMS times fault.RunGolden for both workloads.
func (c crashPair) goldenMS() (float64, error) {
	start := time.Now()
	for _, w := range c.ws {
		if _, err := fault.RunGolden(w); err != nil {
			return 0, err
		}
	}
	return msSince(start), nil
}

// injectProbe times single fault.Inject calls on the first workload at
// every stride-th boundary (fraction 0.6) and returns microseconds per
// call in index order. Every verdict must be crash-equivalent.
func (c crashPair) injectProbe(stride int, tr *tracer, parent int) ([]float64, error) {
	w := c.ws[0]
	g, err := fault.RunGolden(w)
	if err != nil {
		return nil, err
	}
	var us []float64
	for k := 0; k < g.Points(); k += stride {
		sp := tr.begin("fault.inject", parent, int64(k))
		t0 := time.Now()
		v, err := fault.Inject(w, g, fault.Point{Index: k, Frac: 0.6}, nil)
		d := time.Since(t0)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		if !v.Equivalent {
			return nil, fmt.Errorf("%s injection at %d: %s", w.Name, k, v.Mismatch)
		}
		us = append(us, float64(d.Nanoseconds())/1e3)
	}
	return us, nil
}

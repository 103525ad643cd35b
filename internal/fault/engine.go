package fault

import (
	"fmt"
	"math/rand"
	"time"

	"mouse/internal/isa"
	"mouse/internal/pool"
	"mouse/internal/probe"
	"mouse/internal/sim"
)

// Options configures a sweep's injection-point enumeration.
type Options struct {
	// Fracs are the intra-instruction µ-phase fractions swept at every
	// selected boundary. Empty selects DefaultFracs.
	Fracs []float64

	// Stride samples every Stride-th instruction boundary (for bounded
	// smoke sweeps over long programs). <= 1 is exhaustive.
	Stride int

	// Random > 0 replaces the systematic grid with a seeded randomized
	// campaign of that many uniformly drawn (index, fraction) points.
	Random int
	Seed   int64

	// Workers bounds the sweep pool; <= 0 selects one worker per CPU,
	// 1 runs serially. Reports are identical at any parallelism.
	Workers int

	// Obs optionally receives one probe fault event per injection plus
	// the events of the run that injection simulates. A machine-layer
	// Sweep forks each run from the golden state where its crash lands,
	// so Obs sees the initial charge and the simulated suffix (the
	// crash, recovery and replay up to re-convergence), not the golden
	// prefix; Inject and the trace layer report whole runs. Per
	// injection the order is: the fault event, the initial charge's
	// OutageBegin and OutageEnd, then the suffix. A worker charges a
	// group of points before forking any of them, so a point's charge
	// events are emitted, with their recorded times, just before its
	// suffix. One worker's injections arrive in order of their energy
	// windows. Obs is shared across concurrent workers, so it must be
	// concurrency-safe (like probe.Stats).
	Obs probe.Observer
}

// DefaultFracs covers every µ-phase band of the controller cycle: the
// exact boundary, fetch, early/mid/late execute, the ACT register write,
// the PC write, and the PC parity commit (see sim's phaseFor).
func DefaultFracs() []float64 {
	return []float64{0, 0.02, 0.30, 0.60, 0.84, 0.87, 0.92, 0.97}
}

// enumerate builds the injection schedule over n instruction boundaries.
func enumerate(n int, opts Options) []Point {
	if opts.Random > 0 {
		rng := rand.New(rand.NewSource(opts.Seed))
		pts := make([]Point, opts.Random)
		for i := range pts {
			pts[i] = Point{Index: rng.Intn(n), Frac: rng.Float64()}
		}
		return pts
	}
	fracs := opts.Fracs
	if len(fracs) == 0 {
		fracs = DefaultFracs()
	}
	stride := opts.Stride
	if stride < 1 {
		stride = 1
	}
	pts := make([]Point, 0, (n/stride+1)*len(fracs))
	for k := 0; k < n; k += stride {
		for _, f := range fracs {
			pts = append(pts, Point{Index: k, Frac: f})
		}
	}
	return pts
}

// checkPoint validates a schedule entry against the golden run.
func checkPoint(p Point, g *Golden) error {
	if p.Index < 0 || p.Index >= len(g.Energies) {
		return fmt.Errorf("fault: injection index %d outside program [0, %d)", p.Index, len(g.Energies))
	}
	if p.Frac < 0 || p.Frac >= 1 {
		return fmt.Errorf("fault: injection fraction %g outside [0, 1)", p.Frac)
	}
	return nil
}

// injector schedules p's outage: it returns p's energy window, the
// injector realizing it, and the observer the injected run reports to
// (see announce).
func (g *Golden) injector(p Point, obs probe.Observer) (float64, *Injector, probe.Observer) {
	windowJ := g.windowFor(p)
	inj := NewInjector(windowJ, g.recoverW)
	return windowJ, inj, announce(p, windowJ, inj, obs)
}

// announce reports injection p to obs, when enabled, and returns the
// observer the injected run reports to: the injector, joined by obs.
func announce(p Point, windowJ float64, inj *Injector, obs probe.Observer) probe.Observer {
	if !probe.Enabled(obs) {
		return inj
	}
	probe.EmitFault(obs, probe.Fault{Index: p.Index, Frac: p.Frac, WindowJ: windowJ})
	return probe.Multi{inj, obs}
}

// Inject runs one scheduled crash of the machine workload against the
// golden reference from scratch — a fresh controller stepped from
// instruction 0 — and returns its verdict. It is the oracle the fork
// engine behind Sweep is differentially tested against, and the entry
// point for the fuzz harness, which feeds it arbitrary points.
func Inject(w Workload, g *Golden, p Point, obs probe.Observer) (Verdict, error) {
	if err := checkPoint(p, g); err != nil {
		return Verdict{}, err
	}
	c, err := w.New()
	if err != nil {
		return Verdict{}, fmt.Errorf("fault: building %s: %w", w.Name, err)
	}
	windowJ, inj, runObs := g.injector(p, obs)
	r := sim.NewMachineRunner(c)
	r.Obs = runObs
	res, runErr := r.Run(inj.Harvester())
	v := verdictFor(p, windowJ, res, runErr, g)
	if v.Mismatch == "" {
		if d := g.snap.diff(capture(c)); d != "" {
			v.Mismatch = d
			v.Equivalent = false
		}
	}
	return v, nil
}

// Sweep crashes the machine workload at every scheduled injection point
// and differentially checks each crashed run against one golden run.
// Each injected run is forked from the golden run's state where its
// crash lands and stops once it re-converges (fork.go); the verdicts
// equal Inject's point for point.
func Sweep(w Workload, opts Options) (*Report, error) {
	g, err := RunGolden(w)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	pts := enumerate(len(g.Energies), opts)
	verdicts, err := forkSweep(w, g, pts, opts.Workers, opts.Obs)
	if err != nil {
		return nil, err
	}
	rep := buildReport(w.Name, LayerMachine, g.Result.Instructions, verdicts, opts)
	rep.WallSeconds = time.Since(start).Seconds()
	return rep, nil
}

// InjectStream is Inject for the trace layer: the run is an analytic
// OpStream, so equivalence is the protocol contract (one outage, at
// most one replay, identical committed work, bounded dead energy)
// rather than cell-state comparison.
func InjectStream(w StreamWorkload, g *Golden, p Point, obs probe.Observer) (Verdict, error) {
	if err := checkPoint(p, g); err != nil {
		return Verdict{}, err
	}
	windowJ, inj, runObs := g.injector(p, obs)
	r := &sim.Runner{Model: w.Model, MaxChargeWait: 24 * 3600, Obs: runObs}
	res, runErr := r.Run(w.New(), inj.Harvester())
	return verdictFor(p, windowJ, res, runErr, g), nil
}

// GoldenStream prices the stream instruction by instruction and runs the
// continuous-power reference.
func GoldenStream(w StreamWorkload) (*Golden, error) {
	s := w.New()
	s.Reset()
	var energies []float64
	maxAct := 0
	for {
		op, ok := s.Next()
		if !ok {
			break
		}
		energies = append(energies, w.Model.Energy(op)+w.Model.Backup(op))
		if op.Kind == isa.KindAct && op.ActCols > maxAct {
			maxAct = op.ActCols
		}
	}
	if len(energies) == 0 {
		return nil, fmt.Errorf("fault: %s has an empty stream", w.Name)
	}
	r := &sim.Runner{Model: w.Model, MaxChargeWait: 24 * 3600}
	res := r.RunContinuous(w.New())
	g := &Golden{Result: res, Energies: energies}
	g.prefix = prefixSums(energies)
	g.maxE = maxFloat(energies)
	peak := g.maxE
	if re := w.Model.Restore(maxAct); re > peak {
		peak = re
	}
	g.recoverW = recoverHeadroom * peak / w.Model.CycleTime()
	return g, nil
}

// SweepStream crashes the trace-layer workload at every scheduled
// injection point.
func SweepStream(w StreamWorkload, opts Options) (*Report, error) {
	g, err := GoldenStream(w)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	pts := enumerate(len(g.Energies), opts)
	verdicts, err := pool.Jobs(opts.Workers, len(pts), func(i int) (Verdict, error) {
		return InjectStream(w, g, pts[i], opts.Obs)
	})
	if err != nil {
		return nil, err
	}
	rep := buildReport(w.Name, LayerTrace, g.Result.Instructions, verdicts, opts)
	rep.WallSeconds = time.Since(start).Seconds()
	return rep, nil
}

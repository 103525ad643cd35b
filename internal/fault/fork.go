package fault

import (
	"cmp"
	"fmt"
	"slices"

	"mouse/internal/bench"
	"mouse/internal/power"
	"mouse/internal/probe"
	"mouse/internal/sim"
)

// The fork engine is Sweep's fast path; Inject, which re-runs every
// point from scratch, is its oracle.
//
// While the injector is armed it supplies no power, so an injected run
// is the golden run, instruction for instruction, up to the boundary j
// where its buffer first cannot pay for a draw. The fork engine
// therefore
//
//  1. replays the golden draw schedule through the point's own charged
//     injector harvester, stopping before the first draw it cannot pay
//     for: that is the boundary j where the crash lands (usually the
//     scheduled Index, but a window that rounds an ulp short lands in
//     Index-1) and the exact buffer voltage and clock there,
//  2. walks a golden cursor forward to j, copies its state into a reused
//     fork controller, and resumes the shared run loop there, and
//  3. stops the fork at the first committed boundary where its full
//     state equals the golden state at j+1.
//
// The early stop is exact. Once the outage fires the injector supplies
// RecoverW, whose energy per cycle out-pays any instruction or restore,
// so no second outage can follow; and the simulator is deterministic,
// so equal state at a boundary means an equal suffix. The remaining
// commits are then the golden run's and the final state is golden's. A
// fork that never re-converges (a crash in the last instruction) or
// never crashes runs to completion and is diffed against the golden
// final state exactly as Inject does.
//
// Points are walked in order of their energy windows, which is the
// order their crashes land along the golden run, so the cursor only
// moves forward; a crash that lands behind it (possible only at ulp
// scale) restarts the cursor from boundary 0. Per point the engine
// keeps one int, its place in that order, and each worker reuses one
// fork and two cursor controllers, so a sweep costs O(n) machine steps
// and one harvester replay per point, not O(n²) machine steps.

// forkSweep runs the schedule on the fork engine and returns the
// verdicts in schedule order. Workers take contiguous ranges of the
// window order, so the verdicts are the same at any parallelism.
func forkSweep(w Workload, g *Golden, pts []Point, workers int, obs probe.Observer) ([]Verdict, error) {
	order := make([]int, len(pts))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return cmp.Compare(g.windowFor(pts[a]), g.windowFor(pts[b]))
	})

	if workers <= 0 {
		workers = bench.DefaultWorkers()
	}
	workers = min(workers, len(order))
	verdicts := make([]Verdict, len(pts))
	_, err := bench.Jobs(workers, workers, func(c int) (struct{}, error) {
		f, err := newForker(w, g, obs)
		if err != nil {
			return struct{}{}, err
		}
		for _, i := range order[c*len(order)/workers : (c+1)*len(order)/workers] {
			if verdicts[i], err = f.inject(pts[i]); err != nil {
				return struct{}{}, err
			}
		}
		return struct{}{}, nil
	})
	if err != nil {
		return nil, err
	}
	return verdicts, nil
}

// drain replays the golden draw schedule through h, stopping before the
// first draw h cannot pay for in full, and returns the number of draws
// replayed: the boundary where the crash lands (len(g.Energies) when it
// never runs out).
func (g *Golden) drain(h *power.Harvester) int {
	for i, e := range g.Energies {
		if !h.DrawFull(g.dt, e) {
			return i
		}
	}
	return len(g.Energies)
}

// forker is one sweep worker's fork engine: a fork runner reused for
// every injection, and a golden cursor pair (at boundary pos and pos+1)
// that walks forward.
type forker struct {
	w   Workload
	g   *Golden
	obs probe.Observer

	fork, at, next *sim.MachineRunner
	atCur, nextCur sim.Cursor
	pos            int

	// converged polls the fork against the golden state at pos+1.
	converged func() bool
}

func newForker(w Workload, g *Golden, obs probe.Observer) (*forker, error) {
	f := &forker{w: w, g: g, obs: obs}
	var err error
	if f.fork, err = f.runner(); err != nil {
		return nil, err
	}
	f.converged = func() bool { return f.fork.C.StateEqual(f.next.C) }
	return f, f.rewind()
}

// runner builds a runner over a fresh controller of the workload.
func (f *forker) runner() (*sim.MachineRunner, error) {
	c, err := f.w.New()
	if err != nil {
		return nil, fmt.Errorf("fault: building %s: %w", f.w.Name, err)
	}
	return sim.NewMachineRunner(c), nil
}

// rewind puts the golden cursor pair back at boundaries 0 and 1.
func (f *forker) rewind() error {
	var err error
	if f.at, err = f.runner(); err != nil {
		return err
	}
	if f.next, err = f.runner(); err != nil {
		return err
	}
	f.atCur, f.nextCur, f.pos = sim.Cursor{}, sim.Cursor{}, 0
	return f.next.Resume(nil, &f.nextCur, stepOnce)
}

// stepOnce ends a golden cursor's Resume at its next boundary.
func stepOnce() bool { return true }

// seek moves the golden cursor pair to boundaries j and j+1.
func (f *forker) seek(j int) error {
	if j < f.pos {
		if err := f.rewind(); err != nil {
			return err
		}
	}
	for ; f.pos < j; f.pos++ {
		f.at.C.CopyStateFrom(f.next.C)
		f.atCur = f.nextCur
		if err := f.next.Resume(nil, &f.nextCur, stepOnce); err != nil {
			return fmt.Errorf("fault: golden cursor at %d: %w", f.pos+1, err)
		}
	}
	return nil
}

// inject runs point p as a fork of the golden run.
func (f *forker) inject(p Point) (Verdict, error) {
	g, r := f.g, f.fork
	windowJ, inj, runObs := g.injector(p, f.obs)
	r.Obs = runObs
	// The charge's OutageEnd arms the injector.
	h := inj.Harvester()
	off, err := r.Charge(h)
	if err != nil {
		return verdictFor(p, windowJ, sim.Result{}, err, g), nil
	}
	j := g.drain(h)
	if err := f.seek(j); err != nil {
		return Verdict{}, err
	}
	r.C.CopyStateFrom(f.at.C)
	cur := f.atCur
	cur.Completed = false
	cur.OffLatency += off
	runErr := r.Resume(h, &cur, f.converged)
	res := cur.Result
	converged := runErr == nil && !res.Completed
	if converged {
		res.Instructions += g.Result.Instructions - uint64(j+1)
		res.Completed = true
	}
	v := verdictFor(p, windowJ, res, runErr, g)
	if v.Mismatch == "" && !converged {
		if d := g.snap.diff(capture(r.C)); d != "" {
			v.Mismatch = d
			v.Equivalent = false
		}
	}
	return v, nil
}

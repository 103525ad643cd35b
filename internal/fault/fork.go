package fault

import (
	"cmp"
	"fmt"
	"slices"

	"mouse/internal/pool"
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
// fork and two cursor controllers, so a sweep costs O(n) machine steps,
// not O(n²).
//
// Step 1 is still O(n) draws per point, and each draw is one link of
// the serial sqrt+divide voltage recurrence, so a worker drains
// drainLanes consecutive points of the window order at once
// (drainLockstep), interleaving their independent chains the way sim's
// segment engine interleaves power-grid lanes (RunSweep). The result
// is bit-identical to draining each point alone through DrawFull: an
// armed injector supplies Power = 0, so a draw's harvest is +0, its
// budget is EnergyAboveOf(C, v, VOff) and its settle is
// VoltageAfterAdd(C, v, 0-e) clamped at VMax, the same plain-float
// helpers on the same values that Capacitor applies, and the clock
// advances by the same dt per paid draw. Consecutive points crash
// within a boundary of each other, so a group's lanes end together.
// The caller's observer hears each point's initial charge only when the
// point is forked, so it still sees, per injection, the fault, the
// charge and then the simulated suffix.

// forkSweep runs the schedule on the fork engine and returns the
// verdicts in schedule order. Workers take contiguous ranges of the
// window order, so the verdicts are the same at any parallelism.
func forkSweep(w Workload, g *Golden, pts []Point, workers int, obs probe.Observer) ([]Verdict, error) {
	order := windowOrder(g, pts)
	if workers <= 0 {
		workers = pool.DefaultWorkers()
	}
	workers = min(workers, len(order))
	verdicts := make([]Verdict, len(pts))
	_, err := pool.Jobs(workers, workers, func(c int) (struct{}, error) {
		f, err := newForker(w, g, obs)
		if err != nil {
			return struct{}{}, err
		}
		mine := order[c*len(order)/workers : (c+1)*len(order)/workers]
		for len(mine) > 0 {
			group := mine[:min(drainLanes, len(mine))]
			mine = mine[len(group):]
			if err := f.injectGroup(pts, group, verdicts); err != nil {
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

// windowOrder returns the indices of pts in order of their energy
// windows, the order their crashes land along the golden run.
func windowOrder(g *Golden, pts []Point) []int {
	order := make([]int, len(pts))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return cmp.Compare(g.windowFor(pts[a]), g.windowFor(pts[b]))
	})
	return order
}

// drainLanes is how many injection points a worker drains together:
// enough independent voltage chains to keep the divide and square-root
// units busy.
const drainLanes = 8

// drainLockstep replays the draw schedule es, dt seconds per draw,
// through every armed injector harvester hs[k] at once, stopping each
// before the first draw it cannot pay for in full, and sets js[k] to
// the number of draws replayed: the boundary where that crash lands
// (len(es) when it never runs out). Nil harvesters are skipped. Every
// harvester ends bit-identical to a loop of hs[k].DrawFull(dt, es[i])
// (see the fork engine note above).
func drainLockstep(es []float64, dt float64, hs []*power.Harvester, js []int) {
	type lane struct {
		h                *power.Harvester
		c, v, vOff, vMax float64
		k                int
	}
	var buf [drainLanes]lane
	lanes := buf[:0]
	for k, h := range hs {
		if h == nil {
			continue
		}
		js[k] = len(es)
		lanes = append(lanes, lane{h: h, c: h.Cap.C, v: h.Cap.Voltage(), vOff: h.VOff, vMax: h.VMax, k: k})
	}
	for i := 0; i < len(es) && len(lanes) > 0; i++ {
		e := es[i]
		settle := 0 - e // the zero harvest less the draw
		for l := 0; l < len(lanes); {
			ln := &lanes[l]
			if e <= power.EnergyAboveOf(ln.c, ln.v, ln.vOff) || e <= 0 {
				ln.v = power.VoltageAfterAdd(ln.c, ln.v, settle)
				if ln.v > ln.vMax {
					ln.v = ln.vMax
				}
				ln.h.AdvanceClock(dt)
				l++
				continue
			}
			// This lane's crash lands here; the others run on.
			js[ln.k] = i
			ln.h.Cap.SetVoltage(ln.v)
			lanes[l] = lanes[len(lanes)-1]
			lanes = lanes[:len(lanes)-1]
		}
	}
	for _, ln := range lanes {
		ln.h.Cap.SetVoltage(ln.v)
	}
}

// forker is one sweep worker's fork engine: a fork runner reused for
// every injection, a golden cursor pair (at boundary pos and pos+1)
// that walks forward, and the group of injections being drained.
type forker struct {
	w   Workload
	g   *Golden
	obs probe.Observer

	fork, at, next *sim.MachineRunner
	atCur, nextCur sim.Cursor
	pos            int

	// converged polls the fork against the golden state at pos+1.
	converged func() bool

	// armed holds the group being drained; hs and js are its lanes.
	armed [drainLanes]injection
	hs    [drainLanes]*power.Harvester
	js    [drainLanes]int
}

// injection is one point between its initial charge and its fork: the
// armed injector, its harvester and buffer (which point into the
// injection, so it is not copied once armed) and how the charge went,
// which the caller's observer hears only when the point is forked.
type injection struct {
	p        Point
	windowJ  float64
	inj      Injector
	h        power.Harvester
	buf      power.Capacitor
	end, off float64 // the charge's completion time and off-time
	err      error   // the charge's failure, if any
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

// injectGroup forks the points pts[i], i in group (at most drainLanes
// consecutive entries of the window order), and stores their verdicts
// in verdicts[i]. It charges and arms every point's injector, drains
// their harvesters together, then forks each point in turn.
func (f *forker) injectGroup(pts []Point, group []int, verdicts []Verdict) error {
	for k, i := range group {
		in := &f.armed[k]
		f.arm(in, pts[i])
		f.hs[k] = &in.h
		if in.err != nil {
			f.hs[k] = nil // the charge failed, so the injector is not armed
		}
	}
	drainLockstep(f.g.Energies, f.g.dt, f.hs[:len(group)], f.js[:len(group)])
	for k, i := range group {
		v, err := f.forkAt(&f.armed[k], f.js[k])
		if err != nil {
			return err
		}
		verdicts[i] = v
	}
	return nil
}

// arm schedules point p in in and charges its harvester, which arms the
// injector. Only the injector hears the charge's events here.
func (f *forker) arm(in *injection, p Point) {
	in.p, in.windowJ = p, f.g.windowFor(p)
	in.inj = *NewInjector(in.windowJ, f.g.recoverW)
	in.inj.harvesterIn(&in.h, &in.buf)
	f.fork.Obs = &in.inj
	in.off, in.err = f.fork.Charge(&in.h)
	in.end = in.h.Now()
}

// forkAt runs injection in, whose harvester has been drained to the
// boundary j where its crash lands, as a fork of the golden run. The
// caller's observer first hears the fault and the initial charge, as
// Charge would have reported it from the harvester's zero clock.
func (f *forker) forkAt(in *injection, j int) (Verdict, error) {
	f.fork.Obs = announce(in.p, in.windowJ, &in.inj, f.obs)
	if probe.Enabled(f.obs) {
		f.obs.OutageBegin(0)
		if in.err == nil {
			f.obs.OutageEnd(in.end, in.off)
		}
	}
	if in.err != nil {
		return verdictFor(in.p, in.windowJ, sim.Result{}, in.err, f.g), nil
	}
	return f.resume(in.p, in.windowJ, &in.h, in.off, j)
}

// resume forks point p, whose charged harvester h (off seconds of
// initial charge) has been drained to boundary j, from the golden state
// there and returns its verdict. The fork runner's observer is set.
func (f *forker) resume(p Point, windowJ float64, h *power.Harvester, off float64, j int) (Verdict, error) {
	g, r := f.g, f.fork
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

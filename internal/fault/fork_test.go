package fault

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"mouse/internal/bench"
	"mouse/internal/mtj"
	"mouse/internal/power"
	"mouse/internal/probe"
	"mouse/internal/sim"
)

// oracleReport builds the sweep report Sweep would emit by running
// every scheduled point through Inject, the from-scratch engine.
func oracleReport(t *testing.T, w Workload, opts Options) *Report {
	t.Helper()
	g, err := RunGolden(w)
	if err != nil {
		t.Fatal(err)
	}
	pts := enumerate(g.Points(), opts)
	verdicts, err := bench.Jobs(0, len(pts), func(i int) (Verdict, error) {
		return Inject(w, g, pts[i], nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	return buildReport(w.Name, LayerMachine, g.Result.Instructions, verdicts, opts)
}

// normalizedJSON renders a report as normalized mouse-fault/v1 JSON.
func normalizedJSON(t *testing.T, rep *Report) []byte {
	t.Helper()
	rep.Normalize()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestForkSweepMatchesOracle is the fork engine's differential gate:
// on every sweep shape, the normalized report Sweep emits is
// byte-identical to the one Inject builds point by point, at one worker
// and at four.
func TestForkSweepMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive oracle sweeps")
	}
	cfg := mtj.ModernSTT()
	cases := []struct {
		name string
		w    Workload
		opts Options
	}{
		{"arith", Arith(cfg), Options{}},
		{"tiny-svm", TinySVM(cfg), Options{}},
		{"tiny-bnn", TinyBNN(cfg), Options{}},
		{"tiny-fft", TinyFFT(cfg), Options{}},
		{"tiny-bnn-scalar", TinyBNN(cfg).ForceScalar(), Options{}},
		{"random-7", TinyBNN(cfg), Options{Random: 200, Seed: 7}},
		{"random-42", TinyFFT(cfg), Options{Random: 200, Seed: 42}},
		{"stride-7", TinySVM(cfg), Options{Stride: 7}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := normalizedJSON(t, oracleReport(t, tc.w, tc.opts))
			for _, workers := range []int{1, 4} {
				opts := tc.opts
				opts.Workers = workers
				rep, err := Sweep(tc.w, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got := normalizedJSON(t, rep); !bytes.Equal(got, want) {
					t.Fatalf("workers %d: fork report diverges from the Inject oracle:\n%s", workers, firstDiff(got, want))
				}
			}
		})
	}
}

// firstDiff renders the first differing line of two reports.
func firstDiff(got, want []byte) string {
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			return fmt.Sprintf("line %d:\n  fork   %s\n  oracle %s", i+1, gl[i], wl[i])
		}
	}
	return "reports differ in length"
}

// forkInject forks the single point p from a fresh golden cursor,
// point by point: the fault and the initial charge reach obs as they
// happen, and the harvester is drained through the DrawFull oracle. It
// is the per-point reference for Sweep's grouped drain and deferred
// charge events.
func forkInject(w Workload, g *Golden, p Point, obs probe.Observer) (Verdict, error) {
	if err := checkPoint(p, g); err != nil {
		return Verdict{}, err
	}
	f, err := newForker(w, g, obs)
	if err != nil {
		return Verdict{}, err
	}
	windowJ, inj, runObs := g.injector(p, obs)
	f.fork.Obs = runObs
	// The charge's OutageEnd arms the injector.
	h := inj.Harvester()
	off, err := f.fork.Charge(h)
	if err != nil {
		return verdictFor(p, windowJ, sim.Result{}, err, g), nil
	}
	return f.resume(p, windowJ, h, off, drainFull(g.Energies, g.dt, h))
}

// inject forks the single point p as Sweep does: a drain group of one.
func (f *forker) inject(p Point) (Verdict, error) {
	var v [1]Verdict
	err := f.injectGroup([]Point{p}, []int{0}, v[:])
	return v[0], err
}

// drainFull is the per-point drain drainLockstep is held to: it replays
// the draw schedule es through h with DrawFull, stopping before the
// first draw h cannot pay for in full, and returns the number of draws
// replayed.
func drainFull(es []float64, dt float64, h *power.Harvester) int {
	for i, e := range es {
		if !h.DrawFull(dt, e) {
			return i
		}
	}
	return len(es)
}

// armedHarvester returns the charged harvester of an armed injector
// scheduled to crash after windowJ joules.
func armedHarvester(t testing.TB, windowJ, recoverW, maxWait float64) *power.Harvester {
	t.Helper()
	inj := NewInjector(windowJ, recoverW)
	h := inj.Harvester()
	off, err := h.ChargeUntilOn(maxWait)
	if err != nil {
		t.Fatal(err)
	}
	inj.OutageEnd(h.Now(), off)
	return h
}

// crashBoundary returns the boundary where p's crash lands: how many
// golden draws its charged, armed injector harvester pays for in full.
func crashBoundary(t *testing.T, g *Golden, p Point) int {
	t.Helper()
	return drainFull(g.Energies, g.dt, armedHarvester(t, g.windowFor(p), g.recoverW, g.maxWait))
}

// TestForkPinnedPoints pins the fork engine's edge cases against the
// oracle: a frac-0 window that rounds an ulp short, so the crash lands
// in the previous instruction; a crash in the last instruction, whose
// fork never re-converges and runs to completion; and a crash landing
// behind a worker's cursor, which rewinds it.
func TestForkPinnedPoints(t *testing.T) {
	w := TinyBNN(mtj.ModernSTT())
	g, err := RunGolden(w)
	if err != nil {
		t.Fatal(err)
	}
	early := Point{Index: -1}
	for k := 1; k < g.Points(); k++ {
		if crashBoundary(t, g, Point{Index: k}) == k-1 {
			early.Index = k
			break
		}
	}
	if early.Index < 0 {
		t.Fatal("no frac-0 point lands in the previous instruction")
	}
	last := Point{Index: g.Points() - 1, Frac: 0.5}
	if j := crashBoundary(t, g, last); j != last.Index {
		t.Fatalf("last-boundary point crashes at %d, want %d", j, last.Index)
	}
	shared, err := newForker(w, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Point{early, last, early} {
		want, err := Inject(w, g, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !want.Equivalent {
			t.Fatalf("point %+v: oracle %s", p, want.Mismatch)
		}
		got, err := forkInject(w, g, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("point %+v: fork %+v, oracle %+v", p, got, want)
		}
		// The shared forker's second early point lands behind its cursor.
		if got, err = shared.inject(p); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("point %+v on a reused forker: fork %+v, oracle %+v", p, got, want)
		}
	}
}

// checkLockstep arms two identical injector harvesters per window,
// drains one set through drainLockstep in groups of size consecutive
// windows and the other point by point through drainFull, and requires
// equal crash boundaries and bit-identical buffer voltages and clocks.
// It returns the boundaries.
func checkLockstep(t testing.TB, es []float64, dt, recoverW, maxWait float64, windows []float64, size int) []int {
	t.Helper()
	hs := make([]*power.Harvester, len(windows))
	js := make([]int, len(windows))
	for k, wj := range windows {
		hs[k] = armedHarvester(t, wj, recoverW, maxWait)
	}
	for lo := 0; lo < len(hs); lo += size {
		hi := min(lo+size, len(hs))
		drainLockstep(es, dt, hs[lo:hi], js[lo:hi])
	}
	for k, wj := range windows {
		h := armedHarvester(t, wj, recoverW, maxWait)
		j := drainFull(es, dt, h)
		if js[k] != j ||
			math.Float64bits(hs[k].Cap.Voltage()) != math.Float64bits(h.Cap.Voltage()) ||
			math.Float64bits(hs[k].Now()) != math.Float64bits(h.Now()) {
			t.Fatalf("group size %d, window %d (%g J): lockstep j=%d v=%x t=%x, DrawFull j=%d v=%x t=%x",
				size, k, wj, js[k], math.Float64bits(hs[k].Cap.Voltage()), math.Float64bits(hs[k].Now()),
				j, math.Float64bits(h.Cap.Voltage()), math.Float64bits(h.Now()))
		}
	}
	return js
}

// TestLockstepDrainMatchesDrawFull is the grouped drain's differential
// gate against the per-point DrawFull oracle: every point of the
// exhaustive tiny-bnn and tiny-fft grids in window order, in groups of
// drainLanes as Sweep drains them (the ulp-short frac-0 points that
// land in the previous instruction included); the first 300 points and
// windows that never run out or are floored at minWindowJ at every
// group size from 1 to drainLanes+1; and schedules with zero-energy
// draws.
func TestLockstepDrainMatchesDrawFull(t *testing.T) {
	cfg := mtj.ModernSTT()
	for _, w := range []Workload{TinyBNN(cfg), TinyFFT(cfg)} {
		t.Run(w.Name, func(t *testing.T) {
			g, err := RunGolden(w)
			if err != nil {
				t.Fatal(err)
			}
			pts := enumerate(g.Points(), Options{})
			order := windowOrder(g, pts)
			windows := make([]float64, len(order))
			for k, i := range order {
				windows[k] = g.windowFor(pts[i])
			}
			js := checkLockstep(t, g.Energies, g.dt, g.recoverW, g.maxWait, windows, drainLanes)
			early := 0
			for k, i := range order {
				if js[k] == pts[i].Index-1 {
					early++
				}
			}
			if early == 0 {
				t.Fatal("no grid point lands in the previous instruction")
			}
			total := g.prefix[len(g.prefix)-1] + g.Energies[len(g.Energies)-1]
			edges := []float64{0, minWindowJ, g.Energies[0], total / 2, total, 2 * total, 0, total / 3}
			for size := 1; size <= drainLanes+1; size++ {
				checkLockstep(t, g.Energies, g.dt, g.recoverW, g.maxWait, windows[:min(len(windows), 300)], size)
				js := checkLockstep(t, g.Energies, g.dt, g.recoverW, g.maxWait, edges, size)
				if js[0] != 0 || js[5] != len(g.Energies) {
					t.Fatalf("group size %d: zero window crashes at %d, doubled window at %d of %d", size, js[0], js[5], len(g.Energies))
				}
			}
			// Every fifth draw costs nothing: zero draws are always paid,
			// even by a lane with no energy above VOff.
			zeros := slices.Clone(g.Energies)
			for i := 0; i < len(zeros); i += 5 {
				zeros[i] = 0
			}
			checkLockstep(t, zeros, g.dt, g.recoverW, g.maxWait, windows[:100], drainLanes)
			checkLockstep(t, zeros, g.dt, g.recoverW, g.maxWait, edges, drainLanes)
		})
	}
}

// FuzzLockstepDrain holds the grouped drain to the DrawFull oracle on
// arbitrary schedules (a quarter of their draws free) and windows (any
// boundary and fraction of it, or beyond the whole schedule), in groups
// of 1 to drainLanes+1.
func FuzzLockstepDrain(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{0, 0, 1, 0, 3, 128, 8, 0, 9, 255})
	f.Add([]byte{200, 4, 0, 0, 9, 255, 13}, []byte{5, 2, 0, 1, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 7})
	f.Fuzz(func(t *testing.T, sched, wins []byte) {
		if len(sched) == 0 || len(wins) < 3 {
			return
		}
		sched = sched[:min(len(sched), 512)]
		es := make([]float64, len(sched))
		prefix := make([]float64, len(sched)+1)
		for i, b := range sched {
			if b&3 != 0 {
				es[i] = float64(b>>2+1) * 1e-13
			}
			prefix[i+1] = prefix[i] + es[i]
		}
		size := 1 + int(wins[0])%(drainLanes+1)
		wins = wins[1:min(len(wins), 1+2*(2*drainLanes+1))]
		var windows []float64
		for k := 0; k+1 < len(wins); k += 2 {
			i := int(wins[k]) % (len(es) + 1)
			frac := float64(wins[k+1]) / 256
			if i == len(es) {
				windows = append(windows, prefix[i]+frac*1e-12)
				continue
			}
			windows = append(windows, prefix[i]+frac*es[i])
		}
		checkLockstep(t, es, 1e-9, 1, 1, windows, size)
	})
}

// eventLog records every probe event it hears, in order.
type eventLog struct{ events []string }

func (l *eventLog) add(format string, args ...any) {
	l.events = append(l.events, fmt.Sprintf(format, args...))
}

func (l *eventLog) FaultInjected(ev probe.Fault)        { l.add("fault %+v", ev) }
func (l *eventLog) InstrRetired(ev probe.Instr)         { l.add("instr %+v", ev) }
func (l *eventLog) PulseInterrupted(ev probe.Interrupt) { l.add("interrupt %+v", ev) }
func (l *eventLog) OutageBegin(t float64)               { l.add("outage-begin %x", math.Float64bits(t)) }
func (l *eventLog) OutageEnd(t, off float64) {
	l.add("outage-end %x %x", math.Float64bits(t), math.Float64bits(off))
}
func (l *eventLog) Restored(ev probe.Restore) { l.add("restored %+v", ev) }
func (l *eventLog) VoltageSample(t, v float64) {
	l.add("vsample %x %x", math.Float64bits(t), math.Float64bits(v))
}
func (l *eventLog) TileWrite(tile, bits int) { l.add("tile-write %d %d", tile, bits) }

// TestSweepObserverOrder pins what a sweep's observer hears: at one
// worker, Sweep's event log equals forkInject's logs, point by point,
// concatenated in window order. forkInject reports each point's fault
// and initial charge as they happen, so Sweep's charge events, held
// back while a group drains, must come out with the same times, just
// before each point's simulated suffix.
func TestSweepObserverOrder(t *testing.T) {
	cfg := mtj.ModernSTT()
	for _, tc := range []struct {
		w    Workload
		opts Options
	}{
		{TinyBNN(cfg), Options{Stride: 20, Fracs: []float64{0, 0.5, 0.97}}},
		{TinyFFT(cfg), Options{Random: 61, Seed: 3}},
	} {
		t.Run(tc.w.Name, func(t *testing.T) {
			got := &eventLog{}
			opts := tc.opts
			opts.Workers, opts.Obs = 1, got
			if _, err := Sweep(tc.w, opts); err != nil {
				t.Fatal(err)
			}
			g, err := RunGolden(tc.w)
			if err != nil {
				t.Fatal(err)
			}
			want := &eventLog{}
			pts := enumerate(g.Points(), opts)
			for _, i := range windowOrder(g, pts) {
				if _, err := forkInject(tc.w, g, pts[i], want); err != nil {
					t.Fatal(err)
				}
			}
			for i := range min(len(got.events), len(want.events)) {
				if got.events[i] != want.events[i] {
					t.Fatalf("event %d: sweep %s, point by point %s", i, got.events[i], want.events[i])
				}
			}
			if len(got.events) != len(want.events) {
				t.Fatalf("sweep logged %d events, point by point %d", len(got.events), len(want.events))
			}
		})
	}
}

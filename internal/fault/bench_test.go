package fault

import (
	"os"
	"slices"
	"testing"
	"time"

	"mouse/internal/mtj"
	"mouse/internal/power"
)

// crashPair is the exhaustive crash-sweep pair: the two machine
// workloads whose sweeps the crash-sweep benchmark times.
func crashPair() []Workload {
	cfg := mtj.ModernSTT()
	return []Workload{TinyBNN(cfg), TinyFFT(cfg)}
}

// BenchmarkSweep is the crash-sweep ladder rung: an exhaustive sweep of
// each workload on one worker, golden run included, in ns per
// injection point.
func BenchmarkSweep(b *testing.B) {
	for _, w := range crashPair() {
		b.Run(w.Name, func(b *testing.B) {
			points := 0
			for i := 0; i < b.N; i++ {
				rep, err := Sweep(w, Options{Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Equivalent != rep.Points {
					b.Fatalf("%d of %d points crash-equivalent", rep.Equivalent, rep.Points)
				}
				points += rep.Points
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(points), "ns/point")
		})
	}
}

// drainFixture is a workload's exhaustive grid as armed injector
// harvesters in window order, restored from a charged prototype before
// every drain.
type drainFixture struct {
	g     *Golden
	proto []power.Harvester
	caps  []power.Capacitor
	hs    []*power.Harvester
	js    []int
}

func newDrainFixture(tb testing.TB, w Workload) *drainFixture {
	tb.Helper()
	g, err := RunGolden(w)
	if err != nil {
		tb.Fatal(err)
	}
	pts := enumerate(g.Points(), Options{})
	d := &drainFixture{
		g:     g,
		proto: make([]power.Harvester, len(pts)),
		caps:  make([]power.Capacitor, len(pts)),
		hs:    make([]*power.Harvester, len(pts)),
		js:    make([]int, len(pts)),
	}
	for k, i := range windowOrder(g, pts) {
		d.proto[k] = *armedHarvester(tb, g.windowFor(pts[i]), g.recoverW, g.maxWait)
		d.hs[k] = new(power.Harvester)
	}
	return d
}

// reset restores every harvester to its charged, armed prototype.
func (d *drainFixture) reset() {
	for k, h := range d.hs {
		*h = d.proto[k]
		d.caps[k] = *d.proto[k].Cap
		h.Cap = &d.caps[k]
	}
}

// lockstep drains the grid in groups of drainLanes, as Sweep does.
func (d *drainFixture) lockstep() {
	d.reset()
	for lo := 0; lo < len(d.hs); lo += drainLanes {
		hi := min(lo+drainLanes, len(d.hs))
		drainLockstep(d.g.Energies, d.g.dt, d.hs[lo:hi], d.js[lo:hi])
	}
}

// perPoint drains the grid one point at a time through the oracle.
func (d *drainFixture) perPoint() {
	d.reset()
	for k, h := range d.hs {
		d.js[k] = drainFull(d.g.Energies, d.g.dt, h)
	}
}

// BenchmarkSweepDrain times the grouped drain against the per-point
// DrawFull oracle over each workload's exhaustive grid, in ns per
// injection point.
func BenchmarkSweepDrain(b *testing.B) {
	for _, w := range crashPair() {
		d := newDrainFixture(b, w)
		for _, c := range []struct {
			name  string
			drain func()
		}{{"lockstep", d.lockstep}, {"perpoint", d.perPoint}} {
			b.Run(w.Name+"/"+c.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					c.drain()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(d.hs)), "ns/point")
			})
		}
	}
}

// TestSweepDrainRegression is the grouped drain's CI ratio gate: over
// each crash-sweep workload's exhaustive grid, draining drainLanes
// points in lockstep must beat draining them one at a time through
// DrawFull by at least 1.5x (about 3x measured on a 2-vCPU Xeon; the
// floor absorbs runner noise).
func TestSweepDrainRegression(t *testing.T) {
	if os.Getenv("MOUSE_BENCH_SMOKE") == "" {
		t.Skip("set MOUSE_BENCH_SMOKE=1 to run the crash-sweep drain regression gate")
	}
	for _, w := range crashPair() {
		d := newDrainFixture(t, w)
		// Best of several rounds per path, interleaved so drift in host
		// speed hits both alike.
		const rounds = 7
		var lock, per []time.Duration
		for r := 0; r < rounds; r++ {
			for _, p := range []struct {
				drain func()
				out   *[]time.Duration
			}{{d.lockstep, &lock}, {d.perPoint, &per}} {
				start := time.Now()
				p.drain()
				*p.out = append(*p.out, time.Since(start))
			}
		}
		l, p := slices.Min(lock), slices.Min(per)
		ratio := float64(p) / float64(l)
		t.Logf("%s: %d points: %v lockstep, %v per point, %.1fx", w.Name, len(d.hs), l, p, ratio)
		if ratio < 1.5 {
			t.Errorf("%s: lockstep drain beats the per-point drain by %.2fx, below the 1.5x floor", w.Name, ratio)
		}
	}
}

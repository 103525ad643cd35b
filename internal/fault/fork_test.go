package fault

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"mouse/internal/bench"
	"mouse/internal/mtj"
	"mouse/internal/probe"
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

// forkInject is the fork engine's single-point entry: it forks p from a
// fresh golden cursor.
func forkInject(w Workload, g *Golden, p Point, obs probe.Observer) (Verdict, error) {
	if err := checkPoint(p, g); err != nil {
		return Verdict{}, err
	}
	f, err := newForker(w, g, obs)
	if err != nil {
		return Verdict{}, err
	}
	return f.inject(p)
}

// crashBoundary returns the boundary where p's crash lands: how many
// golden draws its charged, armed injector harvester pays for in full.
func crashBoundary(t *testing.T, g *Golden, p Point) int {
	t.Helper()
	inj := NewInjector(g.windowFor(p), g.recoverW)
	h := inj.Harvester()
	off, err := h.ChargeUntilOn(g.maxWait)
	if err != nil {
		t.Fatal(err)
	}
	inj.OutageEnd(h.Now(), off)
	return g.drain(h)
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

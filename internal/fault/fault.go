// Package fault is MOUSE's crash-equivalence fault-injection engine.
//
// The paper's headline intermittency claim (Sections I and V) is that
// idempotent MTJ gates plus the dual-PC commit protocol give free
// checkpoints: a power loss at *any* point costs at most one re-executed
// instruction and never corrupts state. Property tests under harvested
// traces only exercise the outages that happen to occur; this package
// makes the claim adversarial. It systematically crashes a run at every
// instruction boundary and at swept intra-instruction µ-phase fractions,
// then differentially checks each crashed run against a continuous-power
// golden run: byte-identical final cells and memory buffer, identical
// committed-instruction counts, exactly one outage, and at most one
// replayed instruction per outage.
//
// Two layers are covered, mirroring package sim:
//
//   - The bit-accurate machine layer (Sweep): a real controller over an
//     array.Machine, outages injected at the exact µ-phase where the
//     energy ran out. State equivalence is checked cell by cell.
//   - The trace layer (SweepStream): an analytic OpStream run, where
//     equivalence means identical committed work and bounded dead energy.
//
// The adversarial supply is Injector: a power.Source pre-charged with
// exactly enough energy to die at the scheduled point, recovering the
// moment the outage fires. A machine-layer Sweep forks each injected
// run from the golden run and stops it at re-convergence (fork.go), with
// Inject, the from-scratch engine, as its oracle. Sweeps parallelize on
// the bench worker pool; results are index-ordered, so serial and
// parallel sweeps produce identical reports.
package fault

import (
	"fmt"

	"mouse/internal/array"
	"mouse/internal/controller"
	"mouse/internal/energy"
	"mouse/internal/isa"
	"mouse/internal/probe"
	"mouse/internal/sim"
)

// Workload is a bit-accurate machine workload: New builds a fresh
// controller (machine + program + preloaded inputs) for one run. Inject
// builds one per injection and each Sweep worker builds three (a fork
// and two golden cursors that copy state between them), so New must be
// deterministic, build the same program and geometry every time, and be
// safe to call from concurrent sweep workers.
type Workload struct {
	Name string
	New  func() (*controller.Controller, error)
}

// ForceScalar returns a variant of the workload whose machine is pinned
// to the scalar resistor-network logic path, so sweeps cover both
// execution engines.
func (w Workload) ForceScalar() Workload {
	inner := w.New
	return Workload{
		Name: w.Name + " (scalar)",
		New: func() (*controller.Controller, error) {
			c, err := inner()
			if err != nil {
				return nil, err
			}
			c.Machine().ForceScalar = true
			return c, nil
		},
	}
}

// StreamWorkload is a trace-layer workload: an operation stream priced
// by a model. New returns a fresh stream per run.
type StreamWorkload struct {
	Name  string
	Model *energy.Model
	New   func() sim.OpStream
}

// Point is one scheduled injection: crash at the given µ-phase fraction
// of the instruction at Index (Frac 0 is the boundary just before it).
type Point struct {
	Index int
	Frac  float64
}

// Verdict is one injection point's differential outcome.
type Verdict struct {
	Index int     `json:"index"`
	Frac  float64 `json:"frac"`
	// WindowJ is the pre-charged energy window that realized the crash.
	WindowJ float64 `json:"window_j"`
	// Equivalent reports crash-equivalence with the golden run; Mismatch
	// holds the first divergence otherwise.
	Equivalent bool   `json:"equivalent"`
	Mismatch   string `json:"mismatch,omitempty"`
	// Replays and Restarts are the crashed run's counters: a passing
	// verdict has exactly one restart and at most one replay.
	Replays  uint64 `json:"replays"`
	Restarts uint64 `json:"restarts"`
	// DeadJ, RestoreJ, and OffSeconds are the energy/latency the outage
	// cost over the golden run.
	DeadJ      float64 `json:"dead_j"`
	RestoreJ   float64 `json:"restore_j"`
	OffSeconds float64 `json:"off_seconds"`
}

// Golden is the continuous-power reference a sweep injects against: the
// final machine state, the run accounting, and the per-instruction
// energy schedule that turns instruction indices into energy windows.
type Golden struct {
	Result sim.Result
	// Energies[i] is instruction i's compute+backup draw in joules; the
	// injector window for point (k, f) is sum(Energies[:k]) + f*Energies[k].
	Energies []float64

	prefix   []float64 // prefix[i] = sum(Energies[:i])
	maxE     float64   // costliest single instruction, joules
	snap     *snapshot
	recoverW float64
	// dt and maxWait are the golden runner's cycle time and recharge
	// bound, which every injected machine run shares.
	dt, maxWait float64
}

// Points returns the number of whole-instruction boundaries available
// for injection (one per executed instruction).
func (g *Golden) Points() int { return len(g.Energies) }

// windowFor maps an injection point to its energy window.
func (g *Golden) windowFor(p Point) float64 {
	return g.prefix[p.Index] + p.Frac*g.Energies[p.Index]
}

// energyRecorder captures the golden run's per-instruction energy
// schedule from the probe stream.
type energyRecorder struct {
	probe.Nop
	energies []float64
}

func (rec *energyRecorder) InstrRetired(ev probe.Instr) {
	rec.energies = append(rec.energies, ev.Energy+ev.Backup)
}

// recoverHeadroom scales the peak single-cycle demand into the
// injector's recovery power, so the recovered run completes without a
// second outage even for the restore phase.
const recoverHeadroom = 8

// RunGolden executes the workload once under continuous power and
// captures the reference for a sweep.
func RunGolden(w Workload) (*Golden, error) {
	c, err := w.New()
	if err != nil {
		return nil, fmt.Errorf("fault: building %s: %w", w.Name, err)
	}
	r := sim.NewMachineRunner(c)
	rec := &energyRecorder{}
	r.Obs = rec
	res, err := r.Run(nil)
	if err != nil {
		return nil, fmt.Errorf("fault: golden run of %s: %w", w.Name, err)
	}
	if len(rec.energies) == 0 {
		return nil, fmt.Errorf("fault: %s executed no instructions", w.Name)
	}
	g := &Golden{Result: res, Energies: rec.energies, snap: capture(c), dt: r.Model.CycleTime(), maxWait: r.MaxChargeWait}
	g.prefix = prefixSums(rec.energies)
	g.maxE = maxFloat(rec.energies)
	// Recovery must out-pay the hungriest cycle and the widest possible
	// restore (every column of every tile re-latched).
	peak := g.maxE
	if re := r.Model.Restore(isa.Cols * len(c.Machine().Tiles)); re > peak {
		peak = re
	}
	g.recoverW = recoverHeadroom * peak / g.dt
	return g, nil
}

func prefixSums(es []float64) []float64 {
	prefix := make([]float64, len(es))
	sum := 0.0
	for i, e := range es {
		prefix[i] = sum
		sum += e
	}
	return prefix
}

func maxFloat(es []float64) float64 {
	m := 0.0
	for _, e := range es {
		if e > m {
			m = e
		}
	}
	return m
}

// snapshot is the complete non-volatile outcome of a machine run: every
// cell of every tile (read out row by row), the memory buffer, and the
// final program counter.
type snapshot struct {
	tiles  [][][]byte
	buffer []byte
	pc     uint64
}

func capture(c *controller.Controller) *snapshot {
	s := captureMachine(c.Machine())
	s.pc = c.NV.PC()
	return s
}

// captureMachine snapshots the machine-only state (cells and buffer,
// no program counter) — the comparison unit for the batched engine,
// which replays flat programs without a controller.
func captureMachine(m *array.Machine) *snapshot {
	s := &snapshot{buffer: append([]byte(nil), m.Buffer...)}
	for _, t := range m.Tiles {
		rows := make([][]byte, t.Rows())
		for r := range rows {
			rows[r] = make([]byte, (t.Cols()+7)/8)
			if err := t.ReadRow(r, rows[r]); err != nil {
				// Rows()/Cols() bound the loop; a read can only fail on a
				// bad row index, which cannot happen here.
				panic(err)
			}
		}
		s.tiles = append(s.tiles, rows)
	}
	return s
}

// diff reports the first divergence between two snapshots, or "".
func (s *snapshot) diff(o *snapshot) string {
	if d := s.diffState(o); d != "" {
		return d
	}
	if s.pc != o.pc {
		return fmt.Sprintf("final PC %d vs %d", s.pc, o.pc)
	}
	return ""
}

// diffState compares the machine-only state (cells and buffer),
// skipping the program counter — the batched replay has none.
func (s *snapshot) diffState(o *snapshot) string {
	if len(s.tiles) != len(o.tiles) {
		return fmt.Sprintf("tile count %d vs %d", len(s.tiles), len(o.tiles))
	}
	for ti := range s.tiles {
		if len(s.tiles[ti]) != len(o.tiles[ti]) {
			return fmt.Sprintf("tile %d row count %d vs %d", ti, len(s.tiles[ti]), len(o.tiles[ti]))
		}
		for r := range s.tiles[ti] {
			if string(s.tiles[ti][r]) != string(o.tiles[ti][r]) {
				return fmt.Sprintf("tile %d row %d cells diverge", ti, r)
			}
		}
	}
	if string(s.buffer) != string(o.buffer) {
		return "memory buffer diverges"
	}
	return ""
}

// verdictFor fills the protocol-level fields every layer shares and
// checks the at-most-one-re-execution contract: exactly one outage,
// at most one replay, committed work identical to golden, dead energy
// bounded by one partial attempt plus one re-execution of the costliest
// instruction (the scheduled window can land an ulp before its target
// boundary, so the bound is program-wide rather than per-index).
func verdictFor(p Point, windowJ float64, res sim.Result, runErr error, g *Golden) Verdict {
	v := Verdict{
		Index: p.Index, Frac: p.Frac, WindowJ: windowJ,
		Replays: res.Replays, Restarts: res.Restarts,
		DeadJ: res.DeadEnergy, RestoreJ: res.RestoreEnergy, OffSeconds: res.OffLatency,
	}
	switch {
	case runErr != nil:
		v.Mismatch = fmt.Sprintf("run failed: %v", runErr)
	case !res.Completed:
		v.Mismatch = "run did not complete"
	case res.Restarts != 1:
		v.Mismatch = fmt.Sprintf("expected exactly one outage, saw %d", res.Restarts)
	case res.Replays > 1:
		v.Mismatch = fmt.Sprintf("%d replays for one outage (claim: at most one)", res.Replays)
	case res.Instructions != g.Result.Instructions:
		// The dual-PC protocol rolls the interrupted instruction back, so
		// the crashed run commits each program position exactly once (the
		// replayed commit is one of them, flagged Replay): the commit
		// count must equal the golden run's.
		v.Mismatch = fmt.Sprintf("committed %d instructions, golden %d", res.Instructions, g.Result.Instructions)
	case res.DeadEnergy > 2*g.maxE*(1+1e-9):
		v.Mismatch = fmt.Sprintf("dead energy %.3g J exceeds one re-execution bound %.3g J", res.DeadEnergy, 2*g.maxE)
	}
	v.Equivalent = v.Mismatch == ""
	return v
}

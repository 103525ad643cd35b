package sim

import (
	"errors"
	"fmt"

	"mouse/internal/array"
	"mouse/internal/controller"
	"mouse/internal/energy"
	"mouse/internal/isa"
	"mouse/internal/mtj"
	"mouse/internal/power"
	"mouse/internal/probe"
)

// MachineRunner executes a real program on the bit-accurate machine under
// harvested power. When the buffer cannot pay for the upcoming cycle, the
// runner injects a power failure at exactly the µ-phase where the energy
// ran out, reboots the controller through its restore protocol, and
// resumes — an end-to-end demonstration that computation survives
// arbitrary interruption (Section V).
//
// Fast/slow path selection: cycles that complete in full step through
// the machine with no Partial, so logic operations take the packed
// word-parallel truth-table engine (array.Tile.ExecLogicFull). Only a
// cycle that dies inside PhaseExecute carries a per-column pulse profile
// (see phaseFor) and drops to the scalar resistor-network path, which
// integrates the partial pulse cell by cell. The two paths are
// bit-identical for full pulses — fidelity tests run entire starved
// workloads both ways and require byte-identical results — so outage
// semantics are exactly the seed's while the common case runs 64
// columns per word operation. Setting Machine.ForceScalar pins the
// scalar path for differential tests and benchmarks.
type MachineRunner struct {
	C     *controller.Controller
	Model *energy.Model

	// MaxChargeWait bounds one recharge wait, in seconds.
	MaxChargeWait float64

	// Obs receives the run's event stream (and is lent to the machine
	// for per-tile write events while Run or Resume executes, unless the
	// machine already has its own observer). Nil or probe.Nop disables
	// emission.
	Obs probe.Observer
}

// NewMachineRunner wraps a controller with the energy model for its
// machine's configuration.
func NewMachineRunner(c *controller.Controller) *MachineRunner {
	m := energy.NewModel(c.Machine().Cfg)
	// Price row transfers at the machine's actual row width rather than
	// the full-scale 1024-column default.
	if len(c.Machine().Tiles) > 0 {
		m.RowBits = c.Machine().Tiles[0].Cols()
	}
	return &MachineRunner{
		C:             c,
		Model:         m,
		MaxChargeWait: 24 * 3600,
	}
}

// opFor prices the upcoming instruction given current machine state.
func (r *MachineRunner) opFor(in isa.Instruction) energy.Op {
	actCols := 0
	if in.Kind == isa.KindAct {
		actCols = in.ActiveCount()
		if in.Broadcast {
			actCols *= len(r.C.Machine().Tiles)
		}
	}
	return energy.OpOf(in, r.C.Machine().ActivePairs(), actCols)
}

// phaseFor maps the fraction of a cycle that completed before the outage
// to the controller µ-phase where execution stopped, with the array
// pulse-length fraction for mid-execute failures. The execute phase
// occupies the bulk of the cycle; the bookkeeping writes sit at the end
// (Section IV-B).
func phaseFor(frac float64) (controller.Phase, *array.Partial) {
	switch {
	case frac < 0.05:
		return controller.PhaseFetch, nil
	case frac < 0.85:
		pulse := (frac - 0.05) / 0.80
		return controller.PhaseExecute, &array.Partial{
			Columns: int(pulse * float64(isa.Cols)),
			Pulse:   func(int) float64 { return pulse },
		}
	case frac < 0.90:
		return controller.PhaseWriteActReg, nil
	case frac < 0.95:
		return controller.PhaseWritePC, nil
	default:
		return controller.PhaseCommitPC, nil
	}
}

// priced is one Op's cycle cost, cached per Run: compute energy, backup
// energy, and converter level.
type priced struct {
	compute, backup float64
	level           int
}

// opPricer caches the energy model's per-Op answers for the duration of
// one run. A program prices only a handful of distinct Ops (one per gate
// at the current activation width, plus the memory and ACT shapes), but
// the run loop consults the model for every instruction of every
// restart; hashing Ops through a map was itself a hot spot, so the cache
// is direct-indexed — one slot per gate keyed by the pair count, and one
// slot per remaining kind. Cached values are the Model's own outputs, so
// accounting stays bit-identical to calling the Model each cycle.
type opPricer struct {
	m *energy.Model

	logic      [mtj.NumGates]priced
	logicPairs [mtj.NumGates]int // -1 = empty

	preset      priced
	presetPairs int // -1 = empty

	act     priced
	actCols int // -1 = empty

	read, write, other       priced
	readOK, writeOK, otherOK bool
}

func newOpPricer(m *energy.Model) *opPricer {
	p := &opPricer{m: m, presetPairs: -1, actCols: -1}
	for i := range p.logicPairs {
		p.logicPairs[i] = -1
	}
	return p
}

func (p *opPricer) compute(op energy.Op) priced {
	return priced{
		compute: p.m.Energy(op),
		backup:  p.m.Backup(op),
		level:   p.m.Level(op),
	}
}

func (p *opPricer) price(op energy.Op) priced {
	switch op.Kind {
	case isa.KindLogic:
		if p.logicPairs[op.Gate] != op.ActivePairs {
			p.logic[op.Gate] = p.compute(op)
			p.logicPairs[op.Gate] = op.ActivePairs
		}
		return p.logic[op.Gate]
	case isa.KindPreset:
		if p.presetPairs != op.ActivePairs {
			p.preset = p.compute(op)
			p.presetPairs = op.ActivePairs
		}
		return p.preset
	case isa.KindAct:
		if p.actCols != op.ActCols {
			p.act = p.compute(op)
			p.actCols = op.ActCols
		}
		return p.act
	case isa.KindRead:
		if !p.readOK {
			p.read = p.compute(op)
			p.readOK = true
		}
		return p.read
	case isa.KindWrite:
		if !p.writeOK {
			p.write = p.compute(op)
			p.writeOK = true
		}
		return p.write
	default:
		// Every remaining kind prices as fetch-only with the common
		// backup cost and no array bias level.
		if !p.otherOK {
			p.other = p.compute(op)
			p.otherOK = true
		}
		return p.other
	}
}

// instrTile reports the tile an instruction addresses, or -1 for
// broadcast and tile-less operations (logic and preset fan out across
// every data tile).
func instrTile(in isa.Instruction) int {
	switch in.Kind {
	case isa.KindRead, isa.KindWrite:
		return int(in.Tile)
	case isa.KindAct:
		if !in.Broadcast {
			return int(in.Tile)
		}
	}
	return -1
}

// Cursor is the machine run loop's state at a committed program
// boundary: the accounting so far plus the converter level the next
// instruction switches from. The zero Cursor is the start of a program;
// Resume carries one forward.
type Cursor struct {
	Result
	level int
}

// Run executes the program to completion under harvester h (or under
// continuous power if h is nil), returning the EH-model accounting: the
// initial charge, then the run loop from the program's first
// instruction.
func (r *MachineRunner) Run(h *power.Harvester) (Result, error) {
	var cur Cursor
	if h != nil {
		off, err := r.Charge(h)
		if err != nil {
			return cur.Result, err
		}
		cur.OffLatency += off
	}
	err := r.Resume(h, &cur, nil)
	return cur.Result, err
}

// Charge recharges h until the machine can boot (the initial charge of
// a run, or the recharge after an outage), emitting the outage's begin
// and end events, and returns the off time.
func (r *MachineRunner) Charge(h *power.Harvester) (float64, error) {
	active := probe.Enabled(r.Obs)
	if active {
		r.Obs.OutageBegin(h.Now())
	}
	off, err := h.ChargeUntilOn(r.MaxChargeWait)
	if err != nil {
		return 0, err
	}
	if active {
		r.Obs.OutageEnd(h.Now(), off)
	}
	return off, nil
}

// Resume is the run loop: it continues the program from the committed
// boundary r.C sits at, with cur holding the accounting up to there and
// h charged (or nil for continuous power), and applies the
// shutdown/restore/re-execute protocol on every outage. It returns when
// the program completes (cur.Completed is set) or when converged, polled
// at every committed boundary short of the end, reports true (cur holds
// the accounting up to that boundary). Any replay after an outage is a
// commit, so the first poll after an outage comes once the interrupted
// instruction has been re-executed. A nil converged runs to completion.
func (r *MachineRunner) Resume(h *power.Harvester, cur *Cursor, converged func() bool) error {
	res := &cur.Result
	dt := r.Model.CycleTime()
	pricer := newOpPricer(r.Model)
	active := probe.Enabled(r.Obs)

	// Lend the observer to the machine for per-tile write events, unless
	// the caller already wired one there.
	if active {
		if m := r.C.Machine(); m.Obs == nil {
			m.Obs = r.Obs
			defer func() { m.Obs = nil }()
		}
	}
	// Under continuous power the clock is the powered time so far.
	clock := func() float64 {
		if h != nil {
			return h.Now()
		}
		return res.OnLatency
	}

	var window float64 // non-termination budget, invariant across outages
	if h != nil {
		window = h.WindowEnergy()
	}

	retry := false
	for {
		in, more := r.C.Peek()
		if !more {
			res.Completed = true
			return nil
		}
		op := r.opFor(in)
		p := pricer.price(op)
		e := p.compute + p.backup

		frac := 1.0
		if h != nil {
			frac = h.Draw(dt, e)
		}
		if frac >= 1 {
			done, err := r.C.Step()
			if err != nil {
				return err
			}
			if retry {
				// Re-execution after a restart is Dead work (the paper's
				// "repeating the last instruction on restart").
				res.DeadEnergy += p.compute
				res.DeadLatency += dt
				res.Replays++
			} else {
				res.ComputeEnergy += p.compute
			}
			res.BackupEnergy += p.backup
			res.OnLatency += dt
			res.Instructions++
			if active {
				r.Obs.InstrRetired(probe.Instr{
					T: clock(), Dur: dt, Kind: in.Kind, Gate: in.Gate,
					Tile:   instrTile(in),
					Energy: p.compute, Backup: p.backup,
					Replay: retry,
				})
			}
			retry = false
			if p.level >= 0 && p.level != cur.level {
				res.LevelSwitches++
				cur.level = p.level
			}
			if done {
				res.Completed = true
				return nil
			}
			if converged != nil && converged() {
				return nil
			}
			continue
		}

		// Outage mid-cycle: inject the failure at the matching µ-phase.
		ph, partial := phaseFor(frac)
		if err := r.C.StepWithFailure(ph, partial); !errors.Is(err, controller.ErrPowerFailure) {
			return fmt.Errorf("sim: expected injected power failure, got %v", err)
		}
		retry = true
		res.DeadEnergy += e * frac
		res.DeadLatency += dt * frac
		res.OnLatency += dt * frac
		res.Restarts++
		if active {
			r.Obs.PulseInterrupted(probe.Interrupt{
				T: h.Now(), Frac: frac, Kind: in.Kind, Lost: e * frac,
			})
		}

		if e > window+h.Src.Power(h.Now())*dt {
			return fmt.Errorf("%w (instruction needs %.3g J, window holds %.3g J)", ErrNonTermination, e, window)
		}

		r.C.PowerFail()
		off, err := r.Charge(h)
		if err != nil {
			return err
		}
		res.OffLatency += off

		// Reboot: restore the column latches from the stored ACT.
		restoreCols := 0
		if act, ok := r.C.NV.Act(); ok {
			restoreCols = act.ActiveCount()
			if act.Broadcast {
				restoreCols *= len(r.C.Machine().Tiles)
			}
		}
		re := r.Model.Restore(restoreCols)
		var spentE, spentT float64
		for {
			reFrac := h.Draw(dt, re)
			res.RestoreEnergy += re * reFrac
			res.RestoreLatency += dt * reFrac
			res.OnLatency += dt * reFrac
			spentE += re * reFrac
			spentT += dt * reFrac
			if reFrac >= 1 {
				break
			}
			// Even the restore ran out; recharge and retry (re-issuing
			// an ACT is itself idempotent).
			off, err := r.Charge(h)
			if err != nil {
				return err
			}
			res.OffLatency += off
		}
		if active {
			r.Obs.Restored(probe.Restore{
				T: h.Now(), Dur: spentT, Cols: restoreCols, Energy: spentE,
			})
		}
		if err := r.C.Restart(); err != nil {
			return err
		}
	}
}

// StreamFromProgram turns a concrete program into an OpStream by
// tracking the activation state analytically (without simulating cell
// contents): ACT instructions update the active set; logic and preset
// operations are priced at the resulting (tile, column) parallelism.
// nTiles is the machine's data-tile count.
func StreamFromProgram(p isa.Program, nTiles int) OpStream {
	return &programStream{p: p, nTiles: nTiles}
}

type programStream struct {
	p      isa.Program
	nTiles int
	pos    int
	pairs  int // current active (tile, column) pairs
}

func (s *programStream) Reset() { s.pos, s.pairs = 0, 0 }

func (s *programStream) Next() (energy.Op, bool) {
	if s.pos >= len(s.p) {
		return energy.Op{}, false
	}
	in := s.p[s.pos]
	s.pos++
	actCols := 0
	if in.Kind == isa.KindAct {
		actCols = in.ActiveCount()
		if in.Broadcast {
			actCols *= s.nTiles
		}
		s.pairs = actCols
	}
	return energy.OpOf(in, s.pairs, actCols), true
}

// Runs implements RunStream by replaying a fresh clone of the stream —
// the activation tracking makes the op sequence stateful, so the
// encoding is derived from the same Next() the stepping path would see.
func (s *programStream) Runs() []energy.OpRun {
	clone := &programStream{p: s.p, nTiles: s.nTiles}
	var runs []energy.OpRun
	for {
		op, ok := clone.Next()
		if !ok {
			return runs
		}
		if n := len(runs); n > 0 && runs[n-1].Op == op {
			runs[n-1].Count++
			continue
		}
		runs = append(runs, energy.OpRun{Op: op, Count: 1})
	}
}

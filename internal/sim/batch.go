package sim

import (
	"fmt"

	"mouse/internal/array"
	"mouse/internal/controller"
	"mouse/internal/energy"
	"mouse/internal/isa"
	"mouse/internal/mtj"
	"mouse/internal/power"
	"mouse/internal/probe"
)

// RunnerBatch executes one program over up to array.MaxLanes
// independent input lanes. Under continuous power with no observers it
// takes the bit-sliced fast path: the program is flattened once
// (compile.Flatten), replayed once on a reused lane-sliced arena
// (array.BatchMachine.Replay) — every word operation advancing all
// lanes — and the energy accounting is priced analytically, instruction
// by instruction, with exactly the model calls MachineRunner's
// continuous path makes, so each lane's Result is bit-identical to a
// sequential MachineRunner run of that lane.
//
// Intermittent execution has no batched form: an outage lands at one
// lane's own µ-phase, the interrupted pulse integrates per cell, and
// checkpoint/replay state is per machine. So any lane given a harvester
// or an observer runs the untouched scalar path — a fresh machine, the
// real controller, MachineRunner.Run — preserving checkpoint, replay,
// and probe semantics per lane exactly as the single-sample runner
// does.
type RunnerBatch struct {
	cfg  *mtj.Config
	w    BatchWorkload
	flat *array.FlatProgram

	model   *energy.Model
	arena   *array.BatchMachine
	scratch *array.Machine

	base       Result
	basePriced bool
}

// BatchWorkload is one program executed identically across lanes, with
// per-lane inputs delivered through Load.
type BatchWorkload struct {
	// Prog is the shared instruction stream.
	Prog isa.Program

	// Tiles, Rows, Cols is the machine geometry every lane runs on.
	Tiles, Rows, Cols int

	// Load writes lane's input cells through set (tile, row, col, bit).
	// It runs against a reset machine state, so it only needs to set the
	// cells the program reads before writing.
	Load func(lane int, set func(tile, row, col, bit int)) error
}

// BatchRun configures one Run call. The zero value (or a nil pointer)
// selects the batched fast path for every lane.
type BatchRun struct {
	// Harvester supplies lane's power source; nil (the function or its
	// result) means continuous power. Any non-nil harvester routes that
	// Run onto the per-lane scalar path.
	Harvester func(lane int) *power.Harvester

	// Observer supplies lane's probe observer. Observers see per-lane
	// event streams, which only the scalar path produces, so a non-nil
	// Observer routes the Run onto it too.
	Observer func(lane int) probe.Observer

	// Visit, if non-nil, receives each lane's final machine state after
	// execution. On the fast path the machine is a shared scratch
	// instance refilled per lane — copy out what you need.
	Visit func(lane int, m *array.Machine) error
}

// NewRunnerBatch compiles the workload for batched replay. The
// flattening performs all per-instruction validation once; Run performs
// none.
func NewRunnerBatch(cfg *mtj.Config, w BatchWorkload) (*RunnerBatch, error) {
	if w.Load == nil {
		return nil, fmt.Errorf("sim: batch workload has no input loader")
	}
	flat, err := array.Flatten(w.Prog, cfg, w.Tiles, w.Rows, w.Cols)
	if err != nil {
		return nil, err
	}
	model := energy.NewModel(cfg)
	// Price row transfers at the machine's actual row width, matching
	// NewMachineRunner.
	model.RowBits = w.Cols
	return &RunnerBatch{
		cfg:     cfg,
		w:       w,
		flat:    flat,
		model:   model,
		arena:   array.NewBatchMachine(w.Tiles, w.Rows, w.Cols),
		scratch: array.NewMachine(cfg, w.Tiles, w.Rows, w.Cols),
	}, nil
}

// Run executes lanes lanes of the workload and returns one Result per
// lane. With a nil opts (or one with neither harvester nor observer)
// every lane advances through the shared bit-sliced replay; otherwise
// each lane runs the scalar intermittent path.
func (r *RunnerBatch) Run(lanes int, opts *BatchRun) ([]Result, error) {
	if lanes <= 0 || lanes > array.MaxLanes {
		return nil, fmt.Errorf("sim: lane count %d out of range [1, %d]", lanes, array.MaxLanes)
	}
	if opts == nil || (opts.Harvester == nil && opts.Observer == nil) {
		var visit func(lane int, m *array.Machine) error
		if opts != nil {
			visit = opts.Visit
		}
		return r.runBatched(lanes, visit)
	}
	return r.runScalar(lanes, opts)
}

// runBatched is the fast path: one arena replay advances every lane.
func (r *RunnerBatch) runBatched(lanes int, visit func(int, *array.Machine) error) ([]Result, error) {
	// The arena is reused across Runs (alloc-free steady state); Reset
	// restores the fresh-machine origin each sequential run starts from,
	// so programs that read a cell before writing it still agree with
	// the scalar path bit for bit.
	r.arena.Reset()
	for lane := 0; lane < lanes; lane++ {
		l := lane
		err := r.w.Load(lane, func(tile, row, col, bit int) {
			r.arena.SetLaneBit(l, tile, row, col, bit)
		})
		if err != nil {
			return nil, fmt.Errorf("sim: loading lane %d: %w", lane, err)
		}
	}
	if err := r.arena.Replay(r.flat); err != nil {
		return nil, err
	}
	if !r.basePriced {
		r.base = r.priceContinuous()
		r.basePriced = true
	}
	out := make([]Result, lanes)
	for lane := range out {
		out[lane] = r.base
	}
	if visit != nil {
		for lane := 0; lane < lanes; lane++ {
			if err := r.arena.StoreLane(lane, r.scratch); err != nil {
				return nil, err
			}
			if err := visit(lane, r.scratch); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// runScalar is the per-lane fallback: fresh machine, real controller,
// MachineRunner — the seed's intermittent execution path, untouched.
func (r *RunnerBatch) runScalar(lanes int, opts *BatchRun) ([]Result, error) {
	out := make([]Result, lanes)
	for lane := 0; lane < lanes; lane++ {
		m := array.NewMachine(r.cfg, r.w.Tiles, r.w.Rows, r.w.Cols)
		err := r.w.Load(lane, func(tile, row, col, bit int) {
			m.Tiles[tile].SetBit(row, col, bit)
		})
		if err != nil {
			return nil, fmt.Errorf("sim: loading lane %d: %w", lane, err)
		}
		runner := NewMachineRunner(controller.New(controller.ProgramStore(r.w.Prog), m))
		var h *power.Harvester
		if opts.Harvester != nil {
			h = opts.Harvester(lane)
		}
		if opts.Observer != nil {
			runner.Obs = opts.Observer(lane)
		}
		res, err := runner.Run(h)
		if err != nil {
			return nil, fmt.Errorf("sim: lane %d: %w", lane, err)
		}
		out[lane] = res
		if opts.Visit != nil {
			if err := opts.Visit(lane, m); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// priceContinuous reproduces MachineRunner.Run's continuous-power
// accounting analytically: the same opPricer, the same Op for every
// instruction (activation pairs tracked exactly as the machine's
// latches evolve), accumulated in the same order — so the Result is bit
// identical, float for float, to running one lane through the scalar
// runner under nil harvester.
func (r *RunnerBatch) priceContinuous() Result {
	var b energy.Breakdown
	dt := r.model.CycleTime()
	lastLevel := 0
	pricer := newOpPricer(r.model)
	// Per-tile active-column counts, mirroring Machine.ActivePairs: the
	// width-filtered, deduplicated column sets compile.Flatten resolved.
	tilePairs := make([]int, r.w.Tiles)
	pairs := 0
	for i := range r.w.Prog {
		in := &r.w.Prog[i]
		// Price before applying the instruction's own latch update —
		// MachineRunner prices at Peek, before Step.
		actCols := 0
		if in.Kind == isa.KindAct {
			// opFor counts the instruction's raw column list (not width
			// filtered) times the tile fan-out.
			actCols = in.ActiveCount()
			if in.Broadcast {
				actCols *= r.w.Tiles
			}
		}
		p := pricer.price(energy.OpOf(*in, pairs, actCols))
		b.ComputeEnergy += p.compute
		b.BackupEnergy += p.backup
		b.OnLatency += dt
		b.Instructions++
		if p.level >= 0 && p.level != lastLevel {
			b.LevelSwitches++
			lastLevel = p.level
		}
		if in.Kind == isa.KindAct {
			n := len(r.flat.Ops[i].Cols)
			pairs = 0
			for t := range tilePairs {
				switch {
				case in.Broadcast, t == int(in.Tile):
					tilePairs[t] = n
				default:
					tilePairs[t] = 0
				}
				pairs += tilePairs[t]
			}
		}
	}
	return Result{Breakdown: b, Completed: true}
}

package bnn

import (
	"fmt"

	"mouse/internal/array"
	"mouse/internal/compile"
	"mouse/internal/mtj"
)

// BatchEngine multiplies the mapping's column batch by the lane axis:
// the compiled program already classifies Columns samples per pass (one
// per column), and the bit-sliced arena runs array.MaxLanes independent
// copies of that pass per replay — capacity Columns×64 samples, sample
// s in lane s/Columns, column s%Columns. A lane replay costs the same at
// any fill, so the engine also owns one column-packed Machine and runs
// a batch there instead, Columns samples per pass, whenever the
// program's ReplayCost says that many passes are no dearer than one lane
// replay. The program is flattened and priced once and both machines
// are reused, so the steady-state classify loop performs no allocation
// and no per-instruction validation.
//
// Like the SVM batch engine this is the continuous-power fast path
// only; intermittent execution keeps the scalar controller path.
type BatchEngine struct {
	m    *Mapping
	net  *Network
	flat *array.FlatProgram
	cost array.ReplayCost

	arena  *array.BatchMachine
	packed *array.Machine
	bits   []int
}

// NewBatchEngine compiles the mapping's program for bit-sliced and
// packed replay on a rows-tall machine (the geometry NewMachine
// allocates).
func (m *Mapping) NewBatchEngine(cfg *mtj.Config, rows int, net *Network) (*BatchEngine, error) {
	flat, err := compile.Flatten(m.Prog, cfg, 1, rows, m.Columns)
	if err != nil {
		return nil, err
	}
	maxPop := 0
	for _, rows := range m.PopRows {
		if len(rows) > maxPop {
			maxPop = len(rows)
		}
	}
	return &BatchEngine{
		m:      m,
		net:    net,
		flat:   flat,
		cost:   flat.Cost(),
		arena:  array.NewBatchMachine(1, rows, m.Columns),
		packed: m.NewMachine(cfg, rows),
		bits:   make([]int, maxPop),
	}, nil
}

// Capacity returns the number of samples one call classifies.
func (e *BatchEngine) Capacity() int { return e.m.Columns * array.MaxLanes }

// Cost returns the program's replay prices; a batch runs packed when
// Cost().PreferPacked(Passes(len(batch))).
func (e *BatchEngine) Cost() array.ReplayCost { return e.cost }

// Passes returns the packed passes n samples take: one per column batch.
func (e *BatchEngine) Passes(n int) int { return (n + e.m.Columns - 1) / e.m.Columns }

// place maps sample s to its (lane, column) slot.
func (e *BatchEngine) place(s int) (lane, col int) { return s / e.m.Columns, s % e.m.Columns }

// features returns the input-vector length and, per feature, its rows.
func (e *BatchEngine) features() (int, func(i int) []int) {
	if e.net.Cfg.InputBits == 1 {
		return len(e.m.InputRows), func(i int) []int { return e.m.InputRows[i : i+1] }
	}
	return len(e.m.InputWordRows), func(i int) []int { return e.m.InputWordRows[i] }
}

// check validates a batch's shape before either machine is touched.
func (e *BatchEngine) check(samples [][]int) error {
	if len(samples) == 0 || len(samples) > e.Capacity() {
		return fmt.Errorf("bnn: batch of %d samples out of range [1, %d]", len(samples), e.Capacity())
	}
	nFeatures, _ := e.features()
	for s, x := range samples {
		if len(x) != nFeatures {
			return fmt.Errorf("bnn: sample %d has %d features, mapping expects %d", s, len(x), nFeatures)
		}
	}
	return nil
}

// loadLanes packs the checked samples into their (lane, column) slots —
// the lane-sliced image of Mapping.LoadInputs.
func (e *BatchEngine) loadLanes(samples [][]int) {
	t := e.arena.Tiles[0]
	nFeatures, featureRows := e.features()
	// One lane word per (cell, column): column col's word collects
	// samples col, col+Columns, col+2·Columns, ...
	usedCols := min(len(samples), e.m.Columns)
	for i := 0; i < nFeatures; i++ {
		for bi, row := range featureRows(i) {
			for col := 0; col < usedCols; col++ {
				var w uint64
				for s := col; s < len(samples); s += e.m.Columns {
					w |= uint64(samples[s][i]>>bi&1) << (s / e.m.Columns)
				}
				t.SetCellLanes(row, col, w)
			}
		}
	}
}

// ClassifyBatch runs one batch and returns the predicted class per
// sample.
func (e *BatchEngine) ClassifyBatch(samples [][]int) ([]int, error) {
	dst := make([]int, len(samples))
	if err := e.ClassifyBatchInto(dst, samples); err != nil {
		return nil, err
	}
	return dst, nil
}

// ClassifyBatchInto classifies into a caller-owned slice — the
// alloc-free steady-state entry point — on whichever machine the cost
// prefers for this many column batches. dst must hold len(samples)
// elements.
func (e *BatchEngine) ClassifyBatchInto(dst []int, samples [][]int) error {
	return e.classifyInto(dst, samples, e.cost.PreferPacked(e.Passes(len(samples))))
}

// ClassifyPackedInto is ClassifyBatchInto forced onto the packed
// machine, one replay per column batch.
func (e *BatchEngine) ClassifyPackedInto(dst []int, samples [][]int) error {
	return e.classifyInto(dst, samples, true)
}

// ClassifyLanesInto is ClassifyBatchInto forced onto the lane arena,
// one replay for the whole batch.
func (e *BatchEngine) ClassifyLanesInto(dst []int, samples [][]int) error {
	return e.classifyInto(dst, samples, false)
}

// classifyInto checks the batch and replays it on the packed machine or
// the lane arena. No Reset on either machine: the loaders overwrite the
// input rows of every sample's column, the program presets every
// derived row, and columns never interact, so a dirty machine classifies
// exactly like a fresh one.
func (e *BatchEngine) classifyInto(dst []int, samples [][]int, packed bool) error {
	if len(dst) < len(samples) {
		return fmt.Errorf("bnn: destination holds %d results, batch has %d", len(dst), len(samples))
	}
	if err := e.check(samples); err != nil {
		return err
	}
	if packed {
		t := e.packed.Tiles[0]
		for start := 0; start < len(samples); start += e.m.Columns {
			pass := samples[start:min(start+e.m.Columns, len(samples))]
			if err := e.m.LoadInputs(e.packed, e.net, pass); err != nil {
				return err
			}
			if err := e.packed.Replay(e.flat); err != nil {
				return err
			}
			for col := range pass {
				dst[start+col] = e.predict(t.Bit, col)
			}
		}
		return nil
	}
	e.loadLanes(samples)
	if err := e.arena.Replay(e.flat); err != nil {
		return err
	}
	t := e.arena.Tiles[0]
	for s := range samples {
		lane, col := e.place(s)
		dst[s] = e.predict(func(row, col int) int { return int(t.CellLanes(row, col) >> lane & 1) }, col)
	}
	return nil
}

// predict returns the class whose output popcount, read through bit at
// column col, scores highest.
func (e *BatchEngine) predict(bit func(row, col int) int, col int) int {
	best, bestScore := 0, 0
	for class, rows := range e.m.PopRows {
		bits := e.bits[:len(rows)]
		for i, row := range rows {
			bits[i] = bit(row, col)
		}
		score := e.net.ScoreFromPop(class, e.m.PopFromBits(bits))
		if class == 0 || score > bestScore {
			best, bestScore = class, score
		}
	}
	return best
}

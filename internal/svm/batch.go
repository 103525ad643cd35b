package svm

import (
	"fmt"

	"mouse/internal/array"
	"mouse/internal/compile"
	"mouse/internal/mtj"
)

// BatchEngine classifies up to array.MaxLanes input vectors per call of
// the SV-parallel program: the mapping already computes every class
// score across columns in one pass, and the engine adds the third axis
// — each lane word bit is one independent sample, so the model-data
// presets, kernel arithmetic, and reduction tree are all amortized 64
// ways. A lane replay costs the same at any fill, so the engine also
// owns one column-packed Machine and runs a small batch there instead,
// one sample per pass, whenever the program's ReplayCost says that many
// passes are no dearer than one lane replay. The program is flattened
// and priced once at construction and both machines are reused across
// batches, so the steady-state classify loop performs no allocation and
// no per-instruction validation.
//
// Both replays are the continuous-power fast paths only; energy
// accounting and intermittent execution go through sim.RunnerBatch or
// the scalar controller path, which this engine leaves untouched.
type BatchEngine struct {
	m      *ParallelMapping
	flat   *array.FlatProgram
	cost   array.ReplayCost
	arena  *array.BatchMachine
	packed *array.Machine

	// scratch buffers for alloc-free extraction.
	scores []int64
	bits   []int
}

// NewBatchEngine compiles the mapping's program for bit-sliced and
// packed replay on a rows-tall machine (the same geometry NewMachine
// allocates).
func (m *ParallelMapping) NewBatchEngine(cfg *mtj.Config, rows int) (*BatchEngine, error) {
	flat, err := compile.Flatten(m.Prog, cfg, 1, rows, m.Columns)
	if err != nil {
		return nil, err
	}
	return &BatchEngine{
		m:      m,
		flat:   flat,
		cost:   flat.Cost(),
		arena:  array.NewBatchMachine(1, rows, m.Columns),
		packed: m.NewMachine(cfg, rows),
		scores: make([]int64, m.Columns/m.K),
		bits:   make([]int, len(m.ScoreRows)),
	}, nil
}

// Lanes returns the batch capacity.
func (e *BatchEngine) Lanes() int { return array.MaxLanes }

// Cost returns the program's replay prices; a batch of n samples runs
// packed when Cost().PreferPacked(n).
func (e *BatchEngine) Cost() array.ReplayCost { return e.cost }

// check validates a batch's shape before either machine is touched.
func (e *BatchEngine) check(samples [][]int) error {
	if len(samples) == 0 || len(samples) > array.MaxLanes {
		return fmt.Errorf("svm: batch of %d samples out of range [1, %d]", len(samples), array.MaxLanes)
	}
	for i, x := range samples {
		if len(x) != len(e.m.InputRows) {
			return fmt.Errorf("svm: sample %d has %d features, mapping expects %d", i, len(x), len(e.m.InputRows))
		}
	}
	return nil
}

// loadLanes packs the checked samples into the input rows, sample i in
// lane i, the same bits in every column (the lane-sliced image of
// LoadInput).
func (e *BatchEngine) loadLanes(samples [][]int) {
	t := e.arena.Tiles[0]
	for j, rows := range e.m.InputRows {
		for bi, row := range rows {
			var w uint64
			for lane, x := range samples {
				w |= uint64(x[j]>>bi&1) << lane
			}
			for col := 0; col < e.m.Columns; col++ {
				t.SetCellLanes(row, col, w)
			}
		}
	}
}

// ScoresBatch runs one batch and returns every class score per sample:
// out[i][c] is sample i's class-c score.
func (e *BatchEngine) ScoresBatch(samples [][]int) ([][]int64, error) {
	out := make([][]int64, len(samples))
	if err := e.run(samples, e.cost.PreferPacked(len(samples)), nil, out); err != nil {
		return nil, err
	}
	return out, nil
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
// prefers for this many samples. dst must hold len(samples) elements.
func (e *BatchEngine) ClassifyBatchInto(dst []int, samples [][]int) error {
	return e.classifyInto(dst, samples, e.cost.PreferPacked(len(samples)))
}

// ClassifyPackedInto is ClassifyBatchInto forced onto the packed
// machine, one replay per sample.
func (e *BatchEngine) ClassifyPackedInto(dst []int, samples [][]int) error {
	return e.classifyInto(dst, samples, true)
}

// ClassifyLanesInto is ClassifyBatchInto forced onto the lane arena,
// one replay for the whole batch.
func (e *BatchEngine) ClassifyLanesInto(dst []int, samples [][]int) error {
	return e.classifyInto(dst, samples, false)
}

func (e *BatchEngine) classifyInto(dst []int, samples [][]int, packed bool) error {
	if len(dst) < len(samples) {
		return fmt.Errorf("svm: destination holds %d results, batch has %d", len(dst), len(samples))
	}
	return e.run(samples, packed, dst, nil)
}

// cellReader returns one sample's logic value at (row, col) of tile 0,
// on whichever machine ran it.
type cellReader func(row, col int) int

// run checks the batch, replays it on the packed machine (one pass per
// sample) or the lane arena (one pass for all), and extracts each
// sample's class into dst or, when dst is nil, its scores into scores.
// No Reset on either machine: the loader overwrites every input row,
// and the program presets all model data and derived rows before
// reading them, so a dirty machine replays to the same state a fresh
// one reaches.
func (e *BatchEngine) run(samples [][]int, packed bool, dst []int, scores [][]int64) error {
	if err := e.check(samples); err != nil {
		return err
	}
	if packed {
		t := e.packed.Tiles[0]
		for i, x := range samples {
			if err := e.m.LoadInput(e.packed, x); err != nil {
				return err
			}
			if err := e.packed.Replay(e.flat); err != nil {
				return err
			}
			e.extract(i, t.Bit, dst, scores)
		}
		return nil
	}
	e.loadLanes(samples)
	if err := e.arena.Replay(e.flat); err != nil {
		return err
	}
	t := e.arena.Tiles[0]
	for lane := range samples {
		e.extract(lane, func(row, col int) int { return int(t.CellLanes(row, col) >> lane & 1) }, dst, scores)
	}
	return nil
}

// extract reads sample i through bit: its class into dst, or its class
// scores into scores when dst is nil.
func (e *BatchEngine) extract(i int, bit cellReader, dst []int, scores [][]int64) {
	if dst != nil {
		dst[i] = e.classify(bit)
		return
	}
	e.readScores(bit)
	scores[i] = append([]int64(nil), e.scores...)
}

// classify reads one sample's predicted class: the in-array argmax
// winner left in column 0, or the host argmax of the class scores.
func (e *BatchEngine) classify(bit cellReader) int {
	if e.m.ArgmaxRows != nil {
		idx := 0
		for i, row := range e.m.ArgmaxRows {
			idx |= bit(row, 0) << i
		}
		return idx
	}
	e.readScores(bit)
	best := 0
	for c, s := range e.scores {
		if s > e.scores[best] {
			best = c
		}
	}
	return best
}

// readScores reads one sample's class scores into the scratch slice, the
// image of Scores' read-out loop.
func (e *BatchEngine) readScores(bit cellReader) {
	for class := range e.scores {
		for i, row := range e.m.ScoreRows {
			e.bits[i] = bit(row, e.m.ClassColumn(class))
		}
		e.scores[class] = e.m.ReadScore(e.bits)
	}
}

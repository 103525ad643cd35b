package svm

import (
	"fmt"

	"mouse/internal/array"
	"mouse/internal/controller"
	"mouse/internal/mtj"
)

// High-level classification helpers: build a machine once, then classify
// inputs with a single call. The low-level flow (load rows, run the
// controller, read score words) remains available for callers that need
// custom power models or fault injection.

// NewMachine allocates a functional machine sized for the mapping.
func (m *ParallelMapping) NewMachine(cfg *mtj.Config, rows int) *array.Machine {
	return array.NewMachine(cfg, 1, rows, m.Columns)
}

// LoadInput writes the input vector into every column of the machine,
// one whole row per input bit.
func (m *ParallelMapping) LoadInput(mach *array.Machine, x []int) error {
	if len(x) != len(m.InputRows) {
		return fmt.Errorf("svm: input has %d features, mapping expects %d", len(x), len(m.InputRows))
	}
	for j, rows := range m.InputRows {
		for bi, row := range rows {
			mach.Tiles[0].FillRow(row, (x[j]>>bi)&1)
		}
	}
	return nil
}

// Scores runs one inference pass and returns every class score.
func (m *ParallelMapping) Scores(mach *array.Machine, x []int) ([]int64, error) {
	if err := m.LoadInput(mach, x); err != nil {
		return nil, err
	}
	c := controller.New(controller.ProgramStore(m.Prog), mach)
	if err := c.Run(); err != nil {
		return nil, err
	}
	classes := m.Columns / m.K
	scores := make([]int64, 0, classes)
	for class := 0; class < classes; class++ {
		bits := make([]int, len(m.ScoreRows))
		for i, row := range m.ScoreRows {
			bits[i] = mach.Tiles[0].Bit(row, m.ClassColumn(class))
		}
		scores = append(scores, m.ReadScore(bits))
	}
	return scores, nil
}

// Classify runs one inference pass and returns the predicted class. With
// an argmax-compiled mapping the index comes straight from the array;
// otherwise the host takes the argmax of the score columns.
func (m *ParallelMapping) Classify(mach *array.Machine, x []int) (int, error) {
	scores, err := m.Scores(mach, x)
	if err != nil {
		return 0, err
	}
	if m.ArgmaxRows != nil {
		idx := 0
		for i, row := range m.ArgmaxRows {
			idx |= mach.Tiles[0].Bit(row, 0) << i
		}
		return idx, nil
	}
	best := 0
	for c, s := range scores {
		if s > scores[best] {
			best = c
		}
	}
	return best, nil
}

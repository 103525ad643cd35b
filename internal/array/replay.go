package array

import (
	"fmt"

	"mouse/internal/isa"
)

// Column-packed replay: the low-fill twin of BatchMachine.Replay. A
// BatchMachine advances 64 samples per word but costs the same whether
// one lane or all 64 hold a sample; a Machine holds one sample per
// column set (the SVM mapping's broadcast) or one sample per column (the
// BNN column batch), and its bit-planes cover 64 columns per word. For a
// few samples, a few packed passes beat one lane replay; ReplayCost
// prices both from the program so callers can pick.

// Replay executes a compiled program once on the packed bit-planes — the
// same FlatProgram BatchMachine.Replay executes, on the same datapath
// Exec drives instruction by instruction. The program must have been
// flattened for this machine's data-tile geometry; that is the only
// runtime check. Like the lane replay it performs no per-instruction
// validation and no allocation, and it emits no observer events: logic
// always takes the full-pulse word kernel (ForceScalar is not
// consulted) and Obs is not called.
func (m *Machine) Replay(fp *FlatProgram) error {
	t0 := m.Tiles[0]
	if m.dataTiles != fp.Tiles || t0.rows != fp.Rows || t0.cols != fp.Cols {
		return fmt.Errorf("array: machine is %dx%dx%d, want %dx%dx%d",
			m.dataTiles, t0.rows, t0.cols, fp.Tiles, fp.Rows, fp.Cols)
	}
	tiles := m.DataTiles()
	for i := range fp.Ops {
		op := &fp.Ops[i]
		switch op.Kind {
		case isa.KindRead:
			unpackBytes(m.Buffer, tiles[op.Tile].rowWords(op.Row))
		case isa.KindWrite:
			tiles[op.Tile].writeFull(op.Row, m.Buffer, op.Rot)
		case isa.KindPreset:
			for _, t := range tiles {
				t.presetFull(op.Row, op.AP)
			}
		case isa.KindLogic:
			for _, t := range tiles {
				t.logicFull(op.NIn, op.MinP, op.ToAP, &op.In, op.Out)
			}
		case isa.KindAct:
			for ti, t := range tiles {
				if op.Broadcast || ti == op.Tile {
					t.SetActive(op.Cols)
				} else {
					t.ClearActive()
				}
			}
		}
	}
	return nil
}

// ReplayCost prices one replay of a FlatProgram on each machine in
// word-operation units: every op costs opWords for its dispatch, and a
// preset or logic op adds the words it touches — every row word of every
// data tile on the packed Machine (its kernels scan the activation
// mask), one lane word per active column on the BatchMachine. Reads and
// writes move one row on both and are priced as dispatches only.
type ReplayCost struct {
	// Packed is one Machine.Replay pass; Lane is one
	// BatchMachine.Replay, at any lane fill.
	Packed, Lane int
}

// opWords is the dispatch cost of one op in word units: decoding an op
// and slicing its rows costs about what touching four words does (on a
// 2-vCPU Xeon, a packed svm-adult pass averages about 11 ns per op, a
// lane replay about 2.2 ns per active-column word).
const opWords = 4

// Cost prices fp, tracking each tile's active-column count through the
// program's activations.
func (fp *FlatProgram) Cost() ReplayCost {
	c := ReplayCost{Packed: opWords * len(fp.Ops), Lane: opWords * len(fp.Ops)}
	rowWords := fp.Tiles * wordsFor(fp.Cols)
	active := make([]int, fp.Tiles)
	for i := range fp.Ops {
		op := &fp.Ops[i]
		switch op.Kind {
		case isa.KindPreset, isa.KindLogic:
			c.Packed += rowWords
			for _, n := range active {
				c.Lane += n
			}
		case isa.KindAct:
			for ti := range active {
				if op.Broadcast || ti == op.Tile {
					active[ti] = len(op.Cols)
				} else {
					active[ti] = 0
				}
			}
		}
	}
	return c
}

// PreferPacked reports whether passes packed replays cost no more than
// one lane replay.
func (c ReplayCost) PreferPacked(passes int) bool { return passes*c.Packed <= c.Lane }

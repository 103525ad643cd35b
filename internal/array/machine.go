package array

import (
	"fmt"

	"mouse/internal/isa"
	"mouse/internal/mtj"
	"mouse/internal/probe"
)

// Machine is the full MOUSE datapath: the set of data tiles plus the
// row-sized memory buffer that mediates reads and writes (Section IV-A).
// The memory controller (package controller) drives it by broadcasting
// decoded instructions; Machine applies their datapath effects.
//
// The memory buffer is one of the five non-array components of MOUSE
// (Section IV-A). It must be non-volatile: a read and its paired write
// are separate instructions with a PC checkpoint between them, so if the
// buffer lost its contents in an outage landing between the two, the
// re-executed write would store garbage. MOUSE "consists entirely of
// non-volatile devices" (Section I), so the buffer survives outages here
// and only the peripheral latches are lost.
type Machine struct {
	Cfg   *mtj.Config
	Tiles []*Tile

	// dataTiles is the number of leading Tiles that participate in
	// broadcast compute operations (preset, logic, broadcast ACT).
	// Tiles appended later — e.g. an attached sensor buffer — are
	// addressable by reads and writes but never compute.
	dataTiles int

	// Buffer is the 128-byte (one-row) memory buffer.
	Buffer []byte

	// ForceScalar routes full-pulse logic operations through the scalar
	// per-cell resistor-network path instead of the packed word-parallel
	// path. Results are bit-identical either way; the knob exists for
	// differential tests and packed-vs-scalar benchmarks.
	ForceScalar bool

	// Obs receives per-tile write events for wear accounting (writes,
	// presets, and logic output pulses all stress cells). Both logic
	// paths report identical events — the packed/scalar split changes
	// how cells are computed, never how many are touched. Nil disables.
	Obs probe.Observer
}

// NewMachine creates a machine with nTiles tiles of rows×cols cells each.
func NewMachine(cfg *mtj.Config, nTiles, rows, cols int) *Machine {
	if nTiles <= 0 || nTiles > isa.BroadcastTile {
		panic(fmt.Sprintf("array: bad tile count %d", nTiles))
	}
	m := &Machine{Cfg: cfg, dataTiles: nTiles, Buffer: make([]byte, (cols+7)/8)}
	for i := 0; i < nTiles; i++ {
		m.Tiles = append(m.Tiles, NewTile(cfg, rows, cols))
	}
	return m
}

// Tile returns tile i, or an error if out of range.
func (m *Machine) Tile(i int) (*Tile, error) {
	if i < 0 || i >= len(m.Tiles) {
		return nil, fmt.Errorf("array: tile %d out of range [0, %d)", i, len(m.Tiles))
	}
	return m.Tiles[i], nil
}

// ActivePairs returns the total number of (tile, column) pairs currently
// active — the multiplier for per-column logic energy.
func (m *Machine) ActivePairs() int {
	n := 0
	for _, t := range m.DataTiles() {
		n += t.ActiveCount()
	}
	return n
}

// DataTiles returns the tiles that participate in compute broadcasts.
func (m *Machine) DataTiles() []*Tile { return m.Tiles[:m.dataTiles] }

// LoseVolatile models a power outage across the machine: the peripheral
// column-activation latches are cleared; the MTJ cells and the
// non-volatile memory buffer persist.
func (m *Machine) LoseVolatile() {
	for _, t := range m.Tiles {
		t.LoseVolatile()
	}
}

// CopyStateFrom overwrites m's run state — every tile's cells and
// activation latch, and the memory buffer — with src's, without
// allocating. Both machines must share a geometry; configuration
// (Cfg, ForceScalar, Obs) is left alone.
func (m *Machine) CopyStateFrom(src *Machine) {
	if len(m.Tiles) != len(src.Tiles) || len(m.Buffer) != len(src.Buffer) {
		panic(fmt.Sprintf("array: copying a %d-tile machine into a %d-tile one", len(src.Tiles), len(m.Tiles)))
	}
	for i, t := range m.Tiles {
		t.copyStateFrom(src.Tiles[i])
	}
	copy(m.Buffer, src.Buffer)
}

// StateEqual reports whether m and o hold identical run state: the
// memory buffer and every tile's cells and activation latch.
func (m *Machine) StateEqual(o *Machine) bool {
	if len(m.Tiles) != len(o.Tiles) || string(m.Buffer) != string(o.Buffer) {
		return false
	}
	for i, t := range m.Tiles {
		if !t.stateEqual(o.Tiles[i]) {
			return false
		}
	}
	return true
}

// Exec applies the full (uninterrupted) datapath effect of one
// instruction. Interruptible execution paths are exercised through
// ExecPartial.
func (m *Machine) Exec(in isa.Instruction) error {
	return m.ExecPartial(in, nil)
}

// Partial describes how far an interrupted instruction progressed before
// power was lost. A nil *Partial means uninterrupted execution.
type Partial struct {
	// Columns bounds how many columns complete for preset and write
	// operations.
	Columns int
	// Pulse gives the per-column pulse fraction for logic operations.
	Pulse PulseLength
}

// ExecPartial applies the datapath effect of one instruction, optionally
// interrupted partway through per p.
func (m *Machine) ExecPartial(in isa.Instruction, p *Partial) error {
	if err := in.Validate(); err != nil {
		return err
	}
	cols := 1 << 30
	pulse := FullPulse
	if p != nil {
		cols = p.Columns
		if p.Pulse != nil {
			pulse = p.Pulse
		}
	}
	switch in.Kind {
	case isa.KindRead:
		t, err := m.Tile(int(in.Tile))
		if err != nil {
			return err
		}
		return t.ReadRow(int(in.Row), m.Buffer)
	case isa.KindWrite:
		t, err := m.Tile(int(in.Tile))
		if err != nil {
			return err
		}
		rot := int(in.Rot)
		if rot >= t.Cols() {
			// Narrow functional machines wrap the rotation at their
			// actual width.
			rot %= t.Cols()
		}
		if err := t.WriteRowRot(int(in.Row), m.Buffer, rot, cols); err != nil {
			return err
		}
		if m.Obs != nil {
			m.Obs.TileWrite(int(in.Tile), clampCols(cols, t.Cols()))
		}
		return nil
	case isa.KindPreset:
		for i, t := range m.DataTiles() {
			if err := t.PresetRow(int(in.Row), in.Value, cols); err != nil {
				return err
			}
			if m.Obs != nil {
				m.Obs.TileWrite(i, clampCols(cols, t.ActiveCount()))
			}
		}
		return nil
	case isa.KindLogic:
		// Gates take at most 3 inputs (Instruction.In); a stack array
		// keeps the per-instruction hot path allocation-free.
		var rowsArr [3]int
		rows := rowsArr[:in.NumInputs()]
		for i := range rows {
			rows[i] = int(in.In[i])
		}
		// Fast/slow path split: an uninterrupted operation (no per-column
		// pulse profile) reduces to the gate's truth table and runs
		// word-parallel; an interrupted one must integrate the partial
		// pulse per cell through the resistor network.
		full := (p == nil || p.Pulse == nil) && !m.ForceScalar
		for i, t := range m.DataTiles() {
			var err error
			if full {
				err = t.ExecLogicFull(in.Gate, rows, int(in.Out))
			} else {
				err = t.ExecLogic(in.Gate, rows, int(in.Out), pulse)
			}
			if err != nil {
				return err
			}
			// Wear: the output row's cell is pulsed in every active
			// column — reported identically by both logic paths.
			if m.Obs != nil {
				m.Obs.TileWrite(i, t.ActiveCount())
			}
		}
		return nil
	case isa.KindAct:
		return m.Activate(in)
	}
	return fmt.Errorf("array: unknown instruction kind %d", uint8(in.Kind))
}

// clampCols bounds a Partial's column limit to the cells actually
// touched in one tile.
func clampCols(cols, touched int) int {
	if cols < touched {
		return cols
	}
	return touched
}

// Activate applies an Activate Columns instruction: the machine-wide
// active configuration is replaced by the instruction's column set, in
// the addressed tile or in every tile (broadcast). Replacement semantics
// make the configuration recoverable from the single most recent ACT
// instruction after an outage (Section IV-D).
func (m *Machine) Activate(in isa.Instruction) error {
	if in.Kind != isa.KindAct {
		return fmt.Errorf("array: Activate on %v instruction", in.Kind)
	}
	cols := in.ActiveColumns()
	if in.Broadcast {
		for _, t := range m.DataTiles() {
			t.SetActive(cols)
		}
		return nil
	}
	target, err := m.Tile(int(in.Tile))
	if err != nil {
		return err
	}
	for _, t := range m.DataTiles() {
		if t == target {
			t.SetActive(cols)
		} else {
			t.ClearActive()
		}
	}
	if int(in.Tile) >= m.dataTiles {
		// A non-data tile (e.g. the sensor buffer) has no compute
		// columns to activate.
		return fmt.Errorf("array: tile %d is not a data tile", in.Tile)
	}
	return nil
}

// LoadBits writes a bit vector into consecutive rows of one column of a
// tile, bits[i] landing in row start+i*step. A convenience for tests and
// examples that prepare operands.
func (m *Machine) LoadBits(tile, col, start, step int, bits []int) error {
	t, err := m.Tile(tile)
	if err != nil {
		return err
	}
	for i, b := range bits {
		row := start + i*step
		if row < 0 || row >= t.Rows() {
			return fmt.Errorf("array: LoadBits row %d out of range", row)
		}
		t.SetBit(row, col, b)
	}
	return nil
}

// ReadBits reads a bit vector from consecutive rows of one column.
func (m *Machine) ReadBits(tile, col, start, step, n int) ([]int, error) {
	t, err := m.Tile(tile)
	if err != nil {
		return nil, err
	}
	bits := make([]int, n)
	for i := range bits {
		row := start + i*step
		if row < 0 || row >= t.Rows() {
			return nil, fmt.Errorf("array: ReadBits row %d out of range", row)
		}
		bits[i] = t.Bit(row, col)
	}
	return bits, nil
}

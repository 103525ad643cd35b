// Package isa defines the MOUSE instruction set: 64-bit instruction words
// in the three formats of Fig. 6 of the paper (logic operations, memory
// operations, and column activation), plus an output-preset write used to
// prepare logic outputs. It provides encoding, decoding, validation, a
// textual assembler/disassembler, and binary program images suitable for
// preloading into instruction tiles.
//
// Addressing follows the paper: 4-bit opcodes, 9-bit tile addresses
// (up to 512 tiles = 64 MB of 128 KB tiles) and 10-bit row and column
// addresses (1024×1024 arrays).
//
// One deliberate design point: Activate Columns replaces the machine's
// entire active-column configuration (for one tile or broadcast to all
// data tiles), rather than accumulating. This makes the configuration at
// any instant fully determined by the single most recent ACT instruction,
// which is exactly what the controller's one duplicated ACT register can
// restore after a power outage (Section IV-D). Dense activations use the
// ranged form (bulk addressing, as in Section IV-B's reference to [78]).
package isa

import (
	"fmt"
	"slices"
	"strings"

	"mouse/internal/mtj"
)

// Address geometry constants (Fig. 6).
const (
	OpcodeBits = 4
	TileBits   = 9
	RowBits    = 10
	ColBits    = 10

	// MaxTiles is the maximum number of addressable tiles.
	MaxTiles = 1 << TileBits
	// Rows and Cols are the addressable rows/columns per tile.
	Rows = 1 << RowBits
	Cols = 1 << ColBits

	// MaxActList is the maximum number of explicit column addresses a
	// single Activate Columns instruction can carry (Section IV-B).
	MaxActList = 5

	// BroadcastTile is the reserved tile address that an Activate Columns
	// instruction uses to target every data tile at once.
	BroadcastTile = MaxTiles - 1
)

// Kind classifies an instruction into the three formats of Fig. 6
// (memory, logic, activation), with presets distinguished from general
// memory writes because they are row-wide constant writes to the active
// columns.
type Kind uint8

const (
	// KindRead transfers one row of a tile into the memory buffer.
	KindRead Kind = iota
	// KindWrite transfers the memory buffer into one row of a tile.
	KindWrite
	// KindPreset writes a constant state into one row of every active
	// column (preparing a logic output, Section II-B).
	KindPreset
	// KindAct replaces the active-column configuration.
	KindAct
	// KindLogic performs an in-array threshold gate in every active column.
	KindLogic
)

func (k Kind) String() string {
	switch k {
	case KindRead:
		return "read"
	case KindWrite:
		return "write"
	case KindPreset:
		return "preset"
	case KindAct:
		return "act"
	case KindLogic:
		return "logic"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Instruction is one decoded 64-bit MOUSE instruction.
//
// Field usage by kind:
//
//	KindRead, KindWrite: Tile, Row
//	KindPreset:          Row, Value
//	KindLogic:           Gate, In (first Spec(Gate).Inputs entries), Out
//	KindAct:             Broadcast, Tile (unless Broadcast), and either
//	                     Cols (list form, ≤5 entries) or Ranged with
//	                     Start/Count/Stride (bulk form)
type Instruction struct {
	Kind Kind

	// Logic fields.
	Gate mtj.GateKind
	In   [3]uint16
	Out  uint16

	// Memory fields.
	Tile uint16
	Row  uint16

	// Rot rotates the memory buffer as a write lands: destination
	// column c receives buffer bit (c-Rot) mod 1024. A rotated
	// read-write pair is how partial results move *across* columns
	// ("the partial sums are moved, via reads and writes, to a single
	// column", Section VI) — the bit lines only ever move data
	// vertically. Reads always capture the row unrotated.
	Rot uint16

	// Preset value.
	Value mtj.State

	// Activation fields.
	Broadcast bool
	Cols      []uint16
	Ranged    bool
	Start     uint16
	Count     uint16 // number of activated columns (1..1024)
	Stride    uint16
}

// NumInputs returns how many input rows a logic instruction uses.
func (in *Instruction) NumInputs() int {
	return mtj.Spec(in.Gate).Inputs
}

// Read returns an instruction reading (tile, row) into the memory buffer.
func Read(tile, row int) Instruction {
	return Instruction{Kind: KindRead, Tile: uint16(tile), Row: uint16(row)}
}

// Write returns an instruction writing the memory buffer to (tile, row).
func Write(tile, row int) Instruction {
	return Instruction{Kind: KindWrite, Tile: uint16(tile), Row: uint16(row)}
}

// WriteRot returns a write that rotates the buffer by rot columns as it
// lands (column c receives buffer bit (c-rot) mod 1024).
func WriteRot(tile, row, rot int) Instruction {
	return Instruction{Kind: KindWrite, Tile: uint16(tile), Row: uint16(row), Rot: uint16(rot)}
}

// Preset returns an instruction presetting row in all active columns to s.
func Preset(row int, s mtj.State) Instruction {
	return Instruction{Kind: KindPreset, Row: uint16(row), Value: s}
}

// Logic returns a gate instruction with the given input and output rows.
// The number of inputs must match the gate's arity.
func Logic(g mtj.GateKind, inputs []int, out int) Instruction {
	spec := mtj.Spec(g)
	if len(inputs) != spec.Inputs {
		panic(fmt.Sprintf("isa: %s takes %d inputs, got %d", g, spec.Inputs, len(inputs)))
	}
	in := Instruction{Kind: KindLogic, Gate: g, Out: uint16(out)}
	for i, r := range inputs {
		in.In[i] = uint16(r)
	}
	return in
}

// ActList returns an Activate Columns instruction activating the listed
// columns (at most MaxActList of them) in tile t, replacing the previous
// configuration. Pass broadcast to activate the columns in every tile.
func ActList(broadcast bool, tile int, cols []uint16) Instruction {
	if broadcast {
		tile = 0
	}
	return Instruction{
		Kind:      KindAct,
		Broadcast: broadcast,
		Tile:      uint16(tile),
		Cols:      append([]uint16(nil), cols...),
	}
}

// ActRange returns a bulk Activate Columns instruction activating count
// columns start, start+stride, ... in tile t (or every tile if broadcast),
// replacing the previous configuration.
func ActRange(broadcast bool, tile int, start, count, stride int) Instruction {
	if broadcast {
		tile = 0
	}
	return Instruction{
		Kind:      KindAct,
		Broadcast: broadcast,
		Tile:      uint16(tile),
		Ranged:    true,
		Start:     uint16(start),
		Count:     uint16(count),
		Stride:    uint16(stride),
	}
}

// ActiveColumns expands an Activate Columns instruction into the concrete
// set of column indices it activates. It panics if in is not a KindAct.
func (in *Instruction) ActiveColumns() []uint16 {
	if in.Kind != KindAct {
		panic("isa: ActiveColumns on non-ACT instruction")
	}
	if !in.Ranged {
		// De-duplicate: repeated entries pad short lists.
		seen := make(map[uint16]bool, len(in.Cols))
		out := make([]uint16, 0, len(in.Cols))
		for _, c := range in.Cols {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
		return out
	}
	out := make([]uint16, 0, in.Count)
	c := uint32(in.Start)
	for i := 0; i < int(in.Count); i++ {
		if c >= Cols {
			break
		}
		out = append(out, uint16(c))
		c += uint32(in.Stride)
	}
	return out
}

// ActiveCount is len(in.ActiveColumns()) without building the slice: the
// simulators price every ACT by its column count on the hot path. It
// panics if in is not a KindAct.
func (in *Instruction) ActiveCount() int {
	if in.Kind != KindAct {
		panic("isa: ActiveCount on non-ACT instruction")
	}
	if !in.Ranged {
		n := 0
		for i, c := range in.Cols {
			if !slices.Contains(in.Cols[:i], c) {
				n++
			}
		}
		return n
	}
	if in.Start >= Cols {
		return 0
	}
	if in.Stride == 0 {
		return int(in.Count)
	}
	return min(int(in.Count), (Cols-1-int(in.Start))/int(in.Stride)+1)
}

// Validate reports whether the instruction is well-formed and encodable.
func (in *Instruction) Validate() error {
	switch in.Kind {
	case KindRead, KindWrite:
		if in.Tile >= MaxTiles {
			return fmt.Errorf("isa: %s: tile %d out of range", in.Kind, in.Tile)
		}
		if in.Row >= Rows {
			return fmt.Errorf("isa: %s: row %d out of range", in.Kind, in.Row)
		}
		if in.Kind == KindRead && in.Rot != 0 {
			return fmt.Errorf("isa: read: rotation applies only to writes")
		}
		if in.Rot >= Cols {
			return fmt.Errorf("isa: %s: rotation %d out of range", in.Kind, in.Rot)
		}
	case KindPreset:
		if in.Row >= Rows {
			return fmt.Errorf("isa: preset: row %d out of range", in.Row)
		}
		if in.Value != mtj.P && in.Value != mtj.AP {
			return fmt.Errorf("isa: preset: bad value %d", in.Value)
		}
	case KindLogic:
		if !in.Gate.Valid() {
			return fmt.Errorf("isa: logic: invalid gate %d", uint8(in.Gate))
		}
		spec := mtj.Spec(in.Gate)
		if in.Out >= Rows {
			return fmt.Errorf("isa: %s: output row %d out of range", in.Gate, in.Out)
		}
		outParity := in.Out & 1
		for i := 0; i < spec.Inputs; i++ {
			r := in.In[i]
			if r >= Rows {
				return fmt.Errorf("isa: %s: input row %d out of range", in.Gate, r)
			}
			// Inputs must share a parity and the output must have the
			// opposite one, so the current path crosses from one bit line
			// to the other (Section II-C).
			if r&1 == outParity {
				return fmt.Errorf("isa: %s: input row %d has same parity as output row %d", in.Gate, r, in.Out)
			}
			if i > 0 && r&1 != in.In[0]&1 {
				return fmt.Errorf("isa: %s: input rows %d and %d differ in parity", in.Gate, in.In[0], r)
			}
			if r == in.Out {
				return fmt.Errorf("isa: %s: row %d used as both input and output", in.Gate, r)
			}
			for j := 0; j < i; j++ {
				if in.In[j] == r {
					return fmt.Errorf("isa: %s: row %d used as two inputs (a cell has one MTJ)", in.Gate, r)
				}
			}
		}
		for i := spec.Inputs; i < 3; i++ {
			if in.In[i] != 0 {
				return fmt.Errorf("isa: %s: unused input slot %d must be zero", in.Gate, i)
			}
		}
	case KindAct:
		if !in.Broadcast && in.Tile >= BroadcastTile {
			return fmt.Errorf("isa: act: tile %d out of range (%d is reserved for broadcast)", in.Tile, BroadcastTile)
		}
		if in.Ranged {
			if in.Start >= Cols {
				return fmt.Errorf("isa: act: start column %d out of range", in.Start)
			}
			if in.Count == 0 || int(in.Count) > Cols {
				return fmt.Errorf("isa: act: count %d out of range [1, %d]", in.Count, Cols)
			}
			if in.Stride >= Cols {
				return fmt.Errorf("isa: act: stride %d out of range", in.Stride)
			}
			if len(in.Cols) != 0 {
				return fmt.Errorf("isa: act: ranged form cannot carry a column list")
			}
		} else {
			if len(in.Cols) == 0 || len(in.Cols) > MaxActList {
				return fmt.Errorf("isa: act: column list length %d out of range [1, %d]", len(in.Cols), MaxActList)
			}
			for _, c := range in.Cols {
				if c >= Cols {
					return fmt.Errorf("isa: act: column %d out of range", c)
				}
			}
		}
	default:
		return fmt.Errorf("isa: unknown instruction kind %d", uint8(in.Kind))
	}
	return nil
}

// String renders the instruction in assembler syntax (see Parse).
func (in Instruction) String() string {
	switch in.Kind {
	case KindRead:
		return fmt.Sprintf("RD %d %d", in.Tile, in.Row)
	case KindWrite:
		if in.Rot != 0 {
			return fmt.Sprintf("WR %d %d %d", in.Tile, in.Row, in.Rot)
		}
		return fmt.Sprintf("WR %d %d", in.Tile, in.Row)
	case KindPreset:
		return fmt.Sprintf("PRE%d %d", in.Value.Bit(), in.Row)
	case KindLogic:
		var b strings.Builder
		fmt.Fprintf(&b, "%s", in.Gate)
		for i := 0; i < in.NumInputs(); i++ {
			fmt.Fprintf(&b, " %d", in.In[i])
		}
		fmt.Fprintf(&b, " %d", in.Out)
		return b.String()
	case KindAct:
		var b strings.Builder
		b.WriteString("ACT ")
		if in.Broadcast {
			b.WriteString("*")
		} else {
			fmt.Fprintf(&b, "T%d", in.Tile)
		}
		if in.Ranged {
			fmt.Fprintf(&b, " R %d %d %d", in.Start, in.Count, in.Stride)
		} else {
			b.WriteString(" C")
			for _, c := range in.Cols {
				fmt.Fprintf(&b, " %d", c)
			}
		}
		return b.String()
	}
	return fmt.Sprintf("?%d", uint8(in.Kind))
}

// Program is a linear sequence of instructions. MOUSE programs have no
// control flow: the controller executes instructions in order until the
// program repeats (Section IV-B), so a Program fully describes execution.
type Program []Instruction

// Validate checks every instruction and returns the first error with its
// index.
func (p Program) Validate() error {
	for i := range p {
		if err := p[i].Validate(); err != nil {
			return fmt.Errorf("instruction %d: %w", i, err)
		}
	}
	return nil
}

// Counts tallies the instructions by kind, a useful summary for energy
// estimation and reporting.
type Counts struct {
	Read, Write, Preset, Act, Logic int
}

// Total returns the total instruction count.
func (c Counts) Total() int { return c.Read + c.Write + c.Preset + c.Act + c.Logic }

// Count returns the per-kind instruction totals of the program.
func (p Program) Count() Counts {
	var c Counts
	for i := range p {
		switch p[i].Kind {
		case KindRead:
			c.Read++
		case KindWrite:
			c.Write++
		case KindPreset:
			c.Preset++
		case KindAct:
			c.Act++
		case KindLogic:
			c.Logic++
		}
	}
	return c
}

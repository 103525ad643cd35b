package isa

import (
	"strings"
	"testing"

	"mouse/internal/mtj"
)

func TestConstructors(t *testing.T) {
	rd := Read(3, 17)
	if rd.Kind != KindRead || rd.Tile != 3 || rd.Row != 17 {
		t.Errorf("Read built %+v", rd)
	}
	wr := Write(4, 18)
	if wr.Kind != KindWrite || wr.Tile != 4 || wr.Row != 18 {
		t.Errorf("Write built %+v", wr)
	}
	pre := Preset(9, mtj.AP)
	if pre.Kind != KindPreset || pre.Row != 9 || pre.Value != mtj.AP {
		t.Errorf("Preset built %+v", pre)
	}
	lg := Logic(mtj.NAND2, []int{0, 2}, 1)
	if lg.Kind != KindLogic || lg.Gate != mtj.NAND2 || lg.In[0] != 0 || lg.In[1] != 2 || lg.Out != 1 {
		t.Errorf("Logic built %+v", lg)
	}
	if lg.NumInputs() != 2 {
		t.Errorf("NAND2 NumInputs = %d", lg.NumInputs())
	}
}

func TestLogicArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("Logic with wrong arity did not panic")
		}
	}()
	Logic(mtj.NAND2, []int{0}, 1)
}

func TestValidateParity(t *testing.T) {
	// Inputs must share parity; output must be the opposite parity.
	good := Logic(mtj.NAND2, []int{0, 2}, 3)
	if err := good.Validate(); err != nil {
		t.Errorf("valid gate rejected: %v", err)
	}
	badOut := Logic(mtj.NAND2, []int{0, 2}, 4)
	if err := badOut.Validate(); err == nil {
		t.Errorf("same-parity output accepted")
	}
	badIn := Logic(mtj.NAND2, []int{0, 3}, 1) // inputs differ in parity; in[1] also collides with out parity
	if err := badIn.Validate(); err == nil {
		t.Errorf("mixed-parity inputs accepted")
	}
}

func TestValidateRanges(t *testing.T) {
	cases := []Instruction{
		Read(MaxTiles, 0),
		Read(0, Rows),
		Write(0, Rows),
		Preset(Rows, mtj.P),
		Logic(mtj.NOT, []int{0}, Rows+1),
		ActList(false, BroadcastTile, []uint16{1}),
		ActList(false, 0, nil),
		ActList(false, 0, []uint16{1, 2, 3, 4, 5, 6}),
		ActList(false, 0, []uint16{Cols}),
		ActRange(false, 0, Cols, 1, 1),
		ActRange(false, 0, 0, 0, 1),
		ActRange(false, 0, 0, Cols+1, 1),
	}
	for i, in := range cases {
		if err := in.Validate(); err == nil {
			t.Errorf("case %d (%v) should not validate", i, in)
		}
	}
}

func TestValidateUnusedInputSlots(t *testing.T) {
	in := Logic(mtj.NOT, []int{2}, 1)
	if err := in.Validate(); err != nil {
		t.Fatalf("NOT rejected: %v", err)
	}
	in.In[1] = 5
	if err := in.Validate(); err == nil {
		t.Errorf("nonzero unused input slot accepted")
	}
}

func TestActiveColumnsList(t *testing.T) {
	in := ActList(true, 0, []uint16{7, 7, 9, 7})
	got := in.ActiveColumns()
	if len(got) != 2 || got[0] != 7 || got[1] != 9 {
		t.Errorf("ActiveColumns = %v, want [7 9]", got)
	}
}

func TestActiveColumnsRange(t *testing.T) {
	in := ActRange(false, 2, 10, 4, 3)
	got := in.ActiveColumns()
	want := []uint16{10, 13, 16, 19}
	if len(got) != len(want) {
		t.Fatalf("ActiveColumns = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ActiveColumns = %v, want %v", got, want)
		}
	}
	// Ranges clip at the column limit rather than wrapping.
	in = ActRange(false, 2, Cols-2, 10, 1)
	if got := in.ActiveColumns(); len(got) != 2 {
		t.Errorf("range past end activated %d columns, want 2", len(got))
	}
}

// TestActiveCountMatchesActiveColumns pins ActiveCount to the length of
// the expansion it replaces on the pricing path: deduplicated list forms,
// ranges clipped at the column limit, and stride-0 ranges that repeat
// one column (which ActiveColumns counts once per repeat).
func TestActiveCountMatchesActiveColumns(t *testing.T) {
	for _, in := range []Instruction{
		ActList(true, 0, nil),
		ActList(false, 3, []uint16{5}),
		ActList(true, 0, []uint16{7, 7, 9, 7}),
		ActList(false, 1, []uint16{1, 2, 3, 4, 5}),
		ActList(false, 1, []uint16{4, 4, 4, 4, 4}),
		ActList(false, 1, []uint16{1, 2, 1, 2, 3}),
		ActRange(false, 2, 10, 4, 3),
		ActRange(false, 2, Cols-2, 10, 1),
		ActRange(true, 0, 0, Cols, 1),
		ActRange(true, 0, 5, 3, 0),
	} {
		if got, want := in.ActiveCount(), len(in.ActiveColumns()); got != want {
			t.Errorf("%v: ActiveCount = %d, want %d", in, got, want)
		}
	}
	starts := []uint16{0, 1, 2, 511, 1000, Cols - 2, Cols - 1, Cols, Cols + 1, 65535}
	counts := []uint16{0, 1, 3, 1000, Cols, 65535}
	for stride := 0; stride <= Cols+1; stride++ {
		for _, start := range starts {
			for _, count := range counts {
				in := Instruction{Kind: KindAct, Ranged: true, Start: start, Count: count, Stride: uint16(stride)}
				if got, want := in.ActiveCount(), len(in.ActiveColumns()); got != want {
					t.Fatalf("start %d count %d stride %d: ActiveCount = %d, want %d", start, count, stride, got, want)
				}
			}
		}
	}
}

func TestActiveCountDoesNotAllocate(t *testing.T) {
	list := ActList(true, 0, []uint16{7, 7, 9, 7, 11})
	ranged := ActRange(true, 0, 3, 500, 2)
	if n := testing.AllocsPerRun(100, func() { _ = list.ActiveCount() + ranged.ActiveCount() }); n != 0 {
		t.Errorf("ActiveCount allocated %.0f times per call", n)
	}
}

func TestActiveColumnsPanicsOnWrongKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("no panic")
		}
	}()
	rd := Read(0, 0)
	rd.ActiveColumns()
}

func TestProgramValidateAndCount(t *testing.T) {
	p := Program{
		ActRange(true, 0, 0, 8, 1),
		Preset(1, mtj.P),
		Logic(mtj.NAND2, []int{0, 2}, 1),
		Read(0, 1),
		Write(1, 3),
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("program invalid: %v", err)
	}
	c := p.Count()
	if c.Act != 1 || c.Preset != 1 || c.Logic != 1 || c.Read != 1 || c.Write != 1 {
		t.Errorf("counts = %+v", c)
	}
	if c.Total() != 5 {
		t.Errorf("total = %d", c.Total())
	}

	p = append(p, Read(MaxTiles, 0))
	err := p.Validate()
	if err == nil || !strings.Contains(err.Error(), "instruction 5") {
		t.Errorf("program validation error %v should name instruction 5", err)
	}
}

func TestInstructionStrings(t *testing.T) {
	cases := map[string]Instruction{
		"RD 3 17":       Read(3, 17),
		"WR 4 2":        Write(4, 2),
		"PRE1 9":        Preset(9, mtj.AP),
		"PRE0 8":        Preset(8, mtj.P),
		"NAND2 0 2 1":   Logic(mtj.NAND2, []int{0, 2}, 1),
		"NOT 2 1":       Logic(mtj.NOT, []int{2}, 1),
		"MAJ3 1 3 5 2":  Logic(mtj.MAJ3, []int{1, 3, 5}, 2),
		"ACT * C 1 2":   ActList(true, 0, []uint16{1, 2}),
		"ACT T7 C 5":    ActList(false, 7, []uint16{5}),
		"ACT * R 0 8 1": ActRange(true, 0, 0, 8, 1),
	}
	for want, in := range cases {
		if got := in.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

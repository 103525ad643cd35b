package controller

import (
	"errors"
	"math/rand"
	"testing"

	"mouse/internal/array"
	"mouse/internal/isa"
	"mouse/internal/mtj"
)

// adderProgram computes a 1-bit full add of (a, b, cin) laid out in rows
// 0, 2, 4 of the active columns, leaving sum in row 6 and carry in row 8.
// It uses the MAJ3/MIN3 pair plus NANDs, and exercises every instruction
// kind (ACT, preset, logic, read, write).
func adderProgram() isa.Program {
	return isa.Program{
		isa.ActList(true, 0, []uint16{0, 1}),
		// carry = MAJ3(a, b, cin) into row 8 (preset 1, toward P).
		isa.Preset(9, mtj.AP),
		isa.Logic(mtj.MAJ3, []int{0, 2, 4}, 9),
		// t1 = MIN3(a,b,cin) = NOT carry, row 11.
		isa.Preset(11, mtj.P),
		isa.Logic(mtj.MIN3, []int{0, 2, 4}, 11),
		// t2 = MAJ3(a, b, t1') — build sum = XOR3 via minority logic:
		// sum = MAJ3(t1, t1, ...) is awkward; instead use the classic
		// identity sum = MIN3(MIN3(a,b,cin) twice)… For the test we only
		// need a deterministic multi-instruction program, so compute
		// sum = NOT(NAND3(a,b,cin)) OR' related junk into scratch rows.
		isa.Preset(13, mtj.P),
		isa.Logic(mtj.NAND3, []int{0, 2, 4}, 13),
		isa.Preset(15, mtj.P),
		isa.Logic(mtj.NOT, []int{13 - 1}, 15), // NOT of row 12 (unused, 0) → 1
		// Move a row between tiles through the buffer.
		isa.Read(0, 9),
		isa.Write(1, 21),
		// Narrow the activation and do one more gate.
		isa.ActList(false, 0, []uint16{1}),
		isa.Preset(17, mtj.P),
		isa.Logic(mtj.NOR2, []int{0, 2}, 17),
	}
}

func newRig() (*Controller, *array.Machine) {
	m := array.NewMachine(mtj.ModernSTT(), 2, 32, 4)
	// Operands in columns 0 and 1 of tile 0: (a,b,cin) = (1,0,1) / (1,1,1).
	m.Tiles[0].SetBit(0, 0, 1)
	m.Tiles[0].SetBit(2, 0, 0)
	m.Tiles[0].SetBit(4, 0, 1)
	m.Tiles[0].SetBit(0, 1, 1)
	m.Tiles[0].SetBit(2, 1, 1)
	m.Tiles[0].SetBit(4, 1, 1)
	c := New(ProgramStore(adderProgram()), m)
	return c, m
}

// snapshot captures every non-volatile cell of the machine.
func snapshot(m *array.Machine) []int {
	var out []int
	for _, t := range m.Tiles {
		for r := 0; r < t.Rows(); r++ {
			for c := 0; c < t.Cols(); c++ {
				out = append(out, t.Bit(r, c))
			}
		}
	}
	return out
}

func TestRunToCompletion(t *testing.T) {
	c, m := newRig()
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	// carry(1,0,1)=1, carry(1,1,1)=1
	if m.Tiles[0].Bit(9, 0) != 1 || m.Tiles[0].Bit(9, 1) != 1 {
		t.Errorf("MAJ3 results wrong: %d %d", m.Tiles[0].Bit(9, 0), m.Tiles[0].Bit(9, 1))
	}
	// MIN3 = NOT MAJ3.
	if m.Tiles[0].Bit(11, 0) != 0 || m.Tiles[0].Bit(11, 1) != 0 {
		t.Errorf("MIN3 results wrong")
	}
	// Row copied to tile 1.
	if m.Tiles[1].Bit(21, 0) != 1 || m.Tiles[1].Bit(21, 1) != 1 {
		t.Errorf("buffer transfer failed")
	}
	// Final NOR ran only in column 1 (narrowed activation).
	if m.Tiles[0].Bit(17, 1) != 0 { // NOR(1,1)=0
		t.Errorf("NOR in active column wrong")
	}
	if m.Tiles[0].Bit(17, 0) != 0 { // inactive: preset also skipped; stays 0
		t.Errorf("inactive column computed")
	}
	if c.Executed != uint64(len(adderProgram())) {
		t.Errorf("Executed = %d, want %d", c.Executed, len(adderProgram()))
	}
}

func TestEmptyProgram(t *testing.T) {
	m := array.NewMachine(mtj.ModernSTT(), 1, 8, 2)
	c := New(ProgramStore(nil), m)
	done, err := c.Step()
	if err != nil || !done {
		t.Fatalf("empty program: done=%v err=%v", done, err)
	}
}

func TestDualPCProtocol(t *testing.T) {
	var nv Persistent
	if nv.PC() != 0 {
		t.Fatalf("initial PC = %d", nv.PC())
	}
	nv.setNextPC(1)
	if nv.PC() != 0 {
		t.Fatalf("PC changed before commit")
	}
	nv.commitPC()
	if nv.PC() != 1 {
		t.Fatalf("PC = %d after commit, want 1", nv.PC())
	}
	// The now-invalid register may be freely corrupted.
	nv.setNextPC(^uint64(0))
	if nv.PC() != 1 {
		t.Fatalf("corrupting the invalid register changed the valid PC")
	}
}

func TestActRegisterProtocol(t *testing.T) {
	var nv Persistent
	if _, ok := nv.Act(); ok {
		t.Fatalf("Act set before any ACT issued")
	}
	a1 := isa.ActList(true, 0, []uint16{1})
	nv.setNextAct(a1)
	if _, ok := nv.Act(); ok {
		t.Fatalf("uncommitted ACT visible")
	}
	nv.commitAct()
	got, ok := nv.Act()
	if !ok || got.String() != a1.String() {
		t.Fatalf("Act() = %v, %v", got, ok)
	}
	a2 := isa.ActList(false, 3, []uint16{5})
	nv.setNextAct(a2)
	if got, _ := nv.Act(); got.String() != a1.String() {
		t.Fatalf("uncommitted second ACT replaced valid one")
	}
	nv.commitAct()
	if got, _ := nv.Act(); got.String() != a2.String() {
		t.Fatalf("second ACT not visible after commit")
	}
}

// TestEveryInterruptionPointIsSafe is the Fig. 7 exhaustive check: for
// every instruction of the program and every µ-phase of its cycle, cut
// power at that point, restart, run to completion, and require the final
// non-volatile state to be identical to an uninterrupted run.
func TestEveryInterruptionPointIsSafe(t *testing.T) {
	ref, refM := newRig()
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	want := snapshot(refM)

	phases := []Phase{PhaseFetch, PhaseExecute, PhaseWriteActReg, PhaseCommitActReg, PhaseWritePC, PhaseCommitPC}
	progLen := len(adderProgram())
	for instr := 0; instr < progLen; instr++ {
		for _, ph := range phases {
			c, m := newRig()
			// Run normally up to the target instruction.
			for i := 0; i < instr; i++ {
				if _, err := c.Step(); err != nil {
					t.Fatal(err)
				}
			}
			// Interrupt the target instruction at phase ph.
			err := c.StepWithFailure(ph, &array.Partial{Columns: 1, Pulse: func(col int) float64 {
				if col == 0 {
					return 0.3
				}
				return 1.0
			}})
			if !errors.Is(err, ErrPowerFailure) {
				t.Fatalf("instr %d phase %v: expected power failure, got %v", instr, ph, err)
			}
			// Outage: volatile state gone; reboot; resume.
			c.PowerFail()
			if err := c.Restart(); err != nil {
				t.Fatalf("instr %d phase %v: restart: %v", instr, ph, err)
			}
			if err := c.Run(); err != nil {
				t.Fatalf("instr %d phase %v: resume: %v", instr, ph, err)
			}
			got := snapshot(m)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("instr %d phase %v: state diverged at cell %d", instr, ph, i)
				}
			}
			if c.Restarts != 1 {
				t.Fatalf("Restarts = %d", c.Restarts)
			}
		}
	}
}

// TestRandomOutageStorm injects many random outages (random instruction,
// random phase, random partial progress) and checks convergence each time.
func TestRandomOutageStorm(t *testing.T) {
	ref, refM := newRig()
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	want := snapshot(refM)
	phases := []Phase{PhaseFetch, PhaseExecute, PhaseWriteActReg, PhaseCommitActReg, PhaseWritePC, PhaseCommitPC}

	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		c, m := newRig()
		outages := 1 + rng.Intn(8)
		for o := 0; o < outages; o++ {
			steps := rng.Intn(4)
			done := false
			for i := 0; i < steps && !done; i++ {
				var err error
				done, err = c.Step()
				if err != nil {
					t.Fatal(err)
				}
			}
			if done {
				break
			}
			frac := rng.Float64() * 1.2
			err := c.StepWithFailure(phases[rng.Intn(len(phases))], &array.Partial{
				Columns: rng.Intn(3),
				Pulse:   func(int) float64 { return frac },
			})
			if !errors.Is(err, ErrPowerFailure) {
				t.Fatal(err)
			}
			c.PowerFail()
			if err := c.Restart(); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		got := snapshot(m)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: state diverged at cell %d", trial, i)
			}
		}
	}
}

type flakySensor struct{ valid bool }

func (s *flakySensor) Valid() bool { return s.valid }

func TestSensorWindowRewind(t *testing.T) {
	// Program: instructions 0-2 are the "sensor transfer" (reads/writes),
	// instruction 3+ is computation.
	prog := isa.Program{
		isa.Read(1, 0), // sensor tile reads
		isa.Write(0, 0),
		isa.Read(1, 2),
		isa.ActList(true, 0, []uint16{0}),
		isa.Preset(1, mtj.P),
	}
	m := array.NewMachine(mtj.ModernSTT(), 2, 8, 2)
	c := New(ProgramStore(prog), m)
	sensor := &flakySensor{valid: true}
	c.SetSensor(sensor)
	c.SensorWindow.Start, c.SensorWindow.End, c.SensorWindow.Enabled = 0, 3, true

	// Execute one transfer instruction, then lose power mid-window with
	// the sensor buffer invalidated (corrupted by the outage).
	if _, err := c.Step(); err != nil {
		t.Fatal(err)
	}
	if err := c.StepWithFailure(PhaseExecute, nil); !errors.Is(err, ErrPowerFailure) {
		t.Fatal(err)
	}
	sensor.valid = false
	c.PowerFail()
	if err := c.Restart(); err != nil {
		t.Fatal(err)
	}
	if c.NV.PC() != 0 {
		t.Fatalf("PC after sensor rewind = %d, want 0", c.NV.PC())
	}

	// With the sensor valid again, an outage inside the window does not
	// rewind.
	sensor.valid = true
	if _, err := c.Step(); err != nil {
		t.Fatal(err)
	}
	if err := c.StepWithFailure(PhaseFetch, nil); !errors.Is(err, ErrPowerFailure) {
		t.Fatal(err)
	}
	c.PowerFail()
	if err := c.Restart(); err != nil {
		t.Fatal(err)
	}
	if c.NV.PC() != 1 {
		t.Fatalf("PC = %d, want 1 (no rewind)", c.NV.PC())
	}
	// Outside the window, an invalid sensor does not rewind either.
	for {
		done, err := c.Step()
		if err != nil {
			t.Fatal(err)
		}
		if c.NV.PC() >= 3 || done {
			break
		}
	}
	sensor.valid = false
	c.PowerFail()
	if err := c.Restart(); err != nil {
		t.Fatal(err)
	}
	if c.NV.PC() < 3 {
		t.Fatalf("PC rewound outside the sensor window")
	}
}

func TestRestartWithoutAnyAct(t *testing.T) {
	// A restart before the first ACT instruction must not fail and must
	// leave no columns active.
	c, m := newRig()
	if err := c.StepWithFailure(PhaseFetch, nil); !errors.Is(err, ErrPowerFailure) {
		t.Fatal(err)
	}
	c.PowerFail()
	if err := c.Restart(); err != nil {
		t.Fatal(err)
	}
	if m.ActivePairs() != 0 {
		t.Errorf("columns active after restart with no stored ACT")
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPhaseStrings(t *testing.T) {
	phases := []Phase{PhaseFetch, PhaseExecute, PhaseWriteActReg, PhaseCommitActReg, PhaseWritePC, PhaseCommitPC, PhaseDone, Phase(42)}
	seen := map[string]bool{}
	for _, p := range phases {
		s := p.String()
		if s == "" || seen[s] {
			t.Errorf("phase %d has empty/duplicate name %q", int(p), s)
		}
		seen[s] = true
	}
}

func TestRepeatStore(t *testing.T) {
	prog := isa.Program{
		isa.ActRange(true, 0, 0, 2, 1),
		isa.Preset(1, mtj.P),
		isa.Logic(mtj.NAND2, []int{0, 2}, 1),
	}
	s := Repeat(ProgramStore(prog), 3)
	for pass := 0; pass < 3; pass++ {
		for i := range prog {
			in, ok := s.Fetch(uint64(pass*len(prog) + i))
			if !ok || in.String() != prog[i].String() {
				t.Fatalf("pass %d instr %d: %v ok=%v", pass, i, in, ok)
			}
		}
	}
	if _, ok := s.Fetch(uint64(3 * len(prog))); ok {
		t.Fatalf("fetch past the final pass succeeded")
	}
	// Endless mode keeps answering.
	inf := Repeat(ProgramStore(prog), 0)
	if _, ok := inf.Fetch(1_000_003); !ok {
		t.Fatalf("endless repeat stopped")
	}
	// Empty programs stay empty.
	if _, ok := Repeat(ProgramStore(nil), 5).Fetch(0); ok {
		t.Fatalf("empty repeat produced instructions")
	}
}

func TestRepeatedInferencePasses(t *testing.T) {
	// Three passes of the same program run back to back; presets
	// re-initialize all scratch, so every pass produces the same result.
	m := array.NewMachine(mtj.ModernSTT(), 1, 16, 4)
	m.Tiles[0].SetBit(0, 0, 1)
	m.Tiles[0].SetBit(2, 0, 1)
	prog := isa.Program{
		isa.ActRange(true, 0, 0, 4, 1),
		isa.Preset(1, mtj.AP),
		isa.Logic(mtj.AND2, []int{0, 2}, 1),
	}
	c := New(Repeat(ProgramStore(prog), 3), m)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Executed != 9 {
		t.Fatalf("executed %d instructions, want 9", c.Executed)
	}
	if m.Tiles[0].Bit(1, 0) != 1 || m.Tiles[0].Bit(1, 1) != 0 {
		t.Fatalf("result wrong after repeated passes")
	}
}

// TestCopyStateFromAndStateEqual: a copied controller equals its source
// and runs the same suffix, and a difference in any part of the run
// state — a cell, an activation latch, the memory buffer, either PC or
// ACT register, the sensor PC — breaks equality.
func TestCopyStateFromAndStateEqual(t *testing.T) {
	const prefix = 10 // past the first ACT and the Read into the buffer
	stepped := func(t *testing.T) *Controller {
		t.Helper()
		c, _ := newRig()
		for i := 0; i < prefix; i++ {
			if _, err := c.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}

	src := stepped(t)
	dst, _ := newRig()
	if dst.StateEqual(src) {
		t.Fatal("a fresh controller equals a stepped one")
	}
	dst.CopyStateFrom(src)
	if !dst.StateEqual(src) {
		t.Fatal("copy differs from its source")
	}
	for done := false; !done; {
		var err error
		if done, err = src.Step(); err != nil {
			t.Fatal(err)
		}
		if _, err := dst.Step(); err != nil {
			t.Fatal(err)
		}
		if !dst.StateEqual(src) {
			t.Fatalf("copy diverged at pc %d", src.NV.PC())
		}
	}

	mutations := []struct {
		name   string
		mutate func(c *Controller)
	}{
		{"cell", func(c *Controller) {
			tile := c.Machine().Tiles[1]
			tile.SetBit(3, 2, 1-tile.Bit(3, 2))
		}},
		// Same column count as the rig's {0, 1}, different columns.
		{"latch", func(c *Controller) { c.Machine().Tiles[0].SetActive([]uint16{2, 3}) }},
		{"buffer", func(c *Controller) { c.Machine().Buffer[0] ^= 1 }},
		{"invalid PC", func(c *Controller) { c.NV.setNextPC(^uint64(0)) }},
		{"invalid ACT", func(c *Controller) { c.NV.setNextAct(isa.ActList(true, 0, []uint16{3})) }},
		{"sensor PC", func(c *Controller) { c.NV.SensorPCSet = true }},
	}
	for _, m := range mutations {
		a, b := stepped(t), stepped(t)
		if !a.StateEqual(b) {
			t.Fatalf("%s: identical runs differ", m.name)
		}
		m.mutate(b)
		if a.StateEqual(b) || b.StateEqual(a) {
			t.Errorf("%s: mutation not detected", m.name)
		}
	}
}

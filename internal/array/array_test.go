package array

import (
	"testing"
	"testing/quick"

	"mouse/internal/isa"
	"mouse/internal/mtj"
)

func testTile(t *testing.T, rows, cols int) *Tile {
	t.Helper()
	return NewTile(mtj.ModernSTT(), rows, cols)
}

func TestTileGeometry(t *testing.T) {
	tile := testTile(t, 16, 32)
	if tile.Rows() != 16 || tile.Cols() != 32 {
		t.Fatalf("geometry %dx%d", tile.Rows(), tile.Cols())
	}
	for _, bad := range [][2]int{{0, 8}, {8, 0}, {isa.Rows + 1, 8}, {8, isa.Cols + 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTile(%d, %d) did not panic", bad[0], bad[1])
				}
			}()
			NewTile(mtj.ModernSTT(), bad[0], bad[1])
		}()
	}
}

func TestTileBits(t *testing.T) {
	tile := testTile(t, 8, 8)
	if tile.Bit(3, 4) != 0 {
		t.Fatalf("fresh tile not zeroed")
	}
	tile.SetBit(3, 4, 1)
	if tile.Bit(3, 4) != 1 {
		t.Fatalf("SetBit did not stick")
	}
	tile.SetBit(3, 4, 0)
	if tile.Bit(3, 4) != 0 {
		t.Fatalf("SetBit(0) did not stick")
	}
}

// TestFillRow: a word fill equals one SetBit per column, across a word
// edge, and leaves the bits beyond the tile width clear.
func TestFillRow(t *testing.T) {
	filled, set := testTile(t, 4, 70), testTile(t, 4, 70)
	for _, bit := range []int{1, 0, 1} {
		filled.FillRow(2, bit)
		for c := 0; c < 70; c++ {
			set.SetBit(2, c, bit)
		}
		if !filled.stateEqual(set) {
			t.Fatalf("FillRow(2, %d) differs from per-column SetBit", bit)
		}
	}
}

func TestReadWriteRow(t *testing.T) {
	tile := testTile(t, 4, 16)
	data := []byte{0xA5, 0x3C}
	if err := tile.WriteRow(2, data, 1<<30); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2)
	if err := tile.ReadRow(2, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xA5 || got[1] != 0x3C {
		t.Fatalf("ReadRow = %x, want a53c", got)
	}
	// Other rows untouched.
	if err := tile.ReadRow(1, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 || got[1] != 0 {
		t.Fatalf("row 1 disturbed: %x", got)
	}
}

func TestReadWriteRowErrors(t *testing.T) {
	tile := testTile(t, 4, 16)
	short := make([]byte, 1)
	if err := tile.ReadRow(0, short); err == nil {
		t.Errorf("short read buffer accepted")
	}
	if err := tile.WriteRow(0, short, 99); err == nil {
		t.Errorf("short write buffer accepted")
	}
	full := make([]byte, 2)
	if err := tile.ReadRow(-1, full); err == nil {
		t.Errorf("negative row accepted")
	}
	if err := tile.WriteRow(4, full, 99); err == nil {
		t.Errorf("out-of-range row accepted")
	}
}

func TestInterruptedWriteRowIsRepeatable(t *testing.T) {
	tile := testTile(t, 4, 16)
	data := []byte{0xFF, 0xFF}
	// Interrupted after 5 columns.
	if err := tile.WriteRow(0, data, 5); err != nil {
		t.Fatal(err)
	}
	if tile.Bit(0, 4) != 1 || tile.Bit(0, 5) != 0 {
		t.Fatalf("partial write boundary wrong")
	}
	// Re-perform in full: final state identical to a single full write.
	if err := tile.WriteRow(0, data, 1<<30); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 16; c++ {
		if tile.Bit(0, c) != 1 {
			t.Fatalf("column %d not written after repeat", c)
		}
	}
}

func TestPresetRowActiveOnly(t *testing.T) {
	tile := testTile(t, 4, 8)
	tile.SetActive([]uint16{1, 3, 5})
	if err := tile.PresetRow(2, mtj.AP, 1<<30); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 8; c++ {
		want := 0
		if c == 1 || c == 3 || c == 5 {
			want = 1
		}
		if tile.Bit(2, c) != want {
			t.Errorf("col %d = %d, want %d", c, tile.Bit(2, c), want)
		}
	}
}

func TestPresetRowPartial(t *testing.T) {
	tile := testTile(t, 4, 8)
	tile.SetActive([]uint16{1, 3, 5})
	if err := tile.PresetRow(2, mtj.AP, 2); err != nil {
		t.Fatal(err)
	}
	if tile.Bit(2, 1) != 1 || tile.Bit(2, 3) != 1 || tile.Bit(2, 5) != 0 {
		t.Errorf("partial preset wrong: %d %d %d", tile.Bit(2, 1), tile.Bit(2, 3), tile.Bit(2, 5))
	}
}

func TestActivationLatch(t *testing.T) {
	tile := testTile(t, 4, 8)
	tile.SetActive([]uint16{0, 7, 200}) // 200 beyond width: ignored
	if n := tile.ActiveCount(); n != 2 {
		t.Fatalf("ActiveCount = %d, want 2", n)
	}
	got := tile.ActiveColumns()
	if len(got) != 2 || got[0] != 0 || got[1] != 7 {
		t.Fatalf("ActiveColumns = %v", got)
	}
	// Replacement semantics.
	tile.SetActive([]uint16{3})
	if n := tile.ActiveCount(); n != 1 {
		t.Fatalf("replacement failed: %v", tile.ActiveColumns())
	}
	tile.LoseVolatile()
	if tile.ActiveCount() != 0 {
		t.Fatalf("LoseVolatile kept columns active")
	}
}

// execGate runs gate g on a fresh tile with the given input bits placed
// on even rows and the preset output on row 1, returning the output bit.
func execGate(t *testing.T, cfg *mtj.Config, g mtj.GateKind, bits []int, pulse PulseLength) int {
	t.Helper()
	tile := NewTile(cfg, 8, 4)
	tile.SetActive([]uint16{2})
	inRows := make([]int, len(bits))
	for i, b := range bits {
		inRows[i] = i * 2
		tile.SetBit(i*2, 2, b)
	}
	tile.SetBit(1, 2, int(mtj.Spec(g).Preset.Bit()))
	if err := tile.ExecLogic(g, inRows, 1, pulse); err != nil {
		t.Fatal(err)
	}
	return tile.Bit(1, 2)
}

func TestExecLogicAllGatesAllConfigs(t *testing.T) {
	for _, cfg := range mtj.Configs() {
		for g := mtj.GateKind(0); g.Valid(); g++ {
			n := mtj.Spec(g).Inputs
			for v := 0; v < 1<<n; v++ {
				bits := make([]int, n)
				states := make([]mtj.State, n)
				for i := range bits {
					bits[i] = (v >> i) & 1
					states[i] = mtj.FromBit(bits[i])
				}
				want := mtj.Evaluate(g, states).Bit()
				if got := execGate(t, cfg, g, bits, FullPulse); got != want {
					t.Errorf("%s: %s%v = %d, want %d", cfg.Name, g, bits, got, want)
				}
			}
		}
	}
}

func TestExecLogicOnlyActiveColumns(t *testing.T) {
	tile := testTile(t, 8, 4)
	tile.SetActive([]uint16{1})
	// Column 1: NAND(0,0)=1. Column 3 identical data but inactive.
	for _, c := range []int{1, 3} {
		tile.SetBit(0, c, 0)
		tile.SetBit(2, c, 0)
		tile.SetBit(1, c, 0) // preset for NAND
	}
	if err := tile.ExecLogic(mtj.NAND2, []int{0, 2}, 1, FullPulse); err != nil {
		t.Fatal(err)
	}
	if tile.Bit(1, 1) != 1 {
		t.Errorf("active column did not compute")
	}
	if tile.Bit(1, 3) != 0 {
		t.Errorf("inactive column computed")
	}
}

func TestExecLogicParityEnforced(t *testing.T) {
	tile := testTile(t, 8, 4)
	tile.SetActive([]uint16{0})
	if err := tile.ExecLogic(mtj.NAND2, []int{0, 2}, 4, FullPulse); err == nil {
		t.Errorf("same-parity output accepted")
	}
	if err := tile.ExecLogic(mtj.NAND2, []int{0, 2}, 7, FullPulse); err != nil {
		t.Errorf("valid parity rejected: %v", err)
	}
	if err := tile.ExecLogic(mtj.NAND2, []int{0}, 1, FullPulse); err == nil {
		t.Errorf("wrong arity accepted")
	}
	if err := tile.ExecLogic(mtj.NAND2, []int{0, 2}, 800, FullPulse); err == nil {
		t.Errorf("out-of-range output row accepted")
	}
}

// TestTableI reproduces Table I of the paper: the four cases of
// re-performing an interrupted AND gate.
func TestTableI(t *testing.T) {
	cfg := mtj.ModernSTT()
	run := func(a, b int, firstPulse float64) int {
		tile := NewTile(cfg, 8, 1)
		tile.SetActive([]uint16{0})
		tile.SetBit(0, 0, a)
		tile.SetBit(2, 0, b)
		tile.SetBit(1, 0, 1) // AND preset is 1
		// First (possibly interrupted) attempt.
		if err := tile.ExecLogic(mtj.AND2, []int{0, 2}, 1, func(int) float64 { return firstPulse }); err != nil {
			t.Fatal(err)
		}
		// Power restored: the controller re-performs the instruction.
		if err := tile.ExecLogic(mtj.AND2, []int{0, 2}, 1, FullPulse); err != nil {
			t.Fatal(err)
		}
		return tile.Bit(1, 0)
	}

	// Row 1 of Table I: output should not switch (inputs 1,1 → AND=1).
	// "Output did not switch before interrupt": repeating is the same as
	// performing for the first time.
	if got := run(1, 1, 0.4); got != 1 {
		t.Errorf("should-not-switch, interrupted: output %d, want 1", got)
	}
	// "Output did switch before interrupt" is impossible by construction:
	// even a full-length first pulse cannot switch it.
	if got := run(1, 1, 1.0); got != 1 {
		t.Errorf("should-not-switch, completed: output %d, want 1", got)
	}

	// Row 2: output should switch (input contains a 0 → AND=0).
	// Interrupted before switching: the repeat completes it.
	if got := run(0, 1, 0.4); got != 0 {
		t.Errorf("should-switch, interrupted: output %d, want 0", got)
	}
	// Switched before the interrupt: repetition cannot switch it back.
	if got := run(0, 1, 1.0); got != 0 {
		t.Errorf("should-switch, completed: output %d, want 0", got)
	}
	if got := run(0, 0, 1.0); got != 0 {
		t.Errorf("both-zero completed: output %d, want 0", got)
	}
}

// TestGateInterruptionIdempotencyProperty generalizes Table I to every
// gate, every input combination, and per-column partial pulses.
func TestGateInterruptionIdempotencyProperty(t *testing.T) {
	cfg := mtj.ProjectedSTT()
	prop := func(gateIdx uint8, inBits uint8, fracNum uint8) bool {
		g := mtj.GateKind(int(gateIdx) % mtj.NumGates)
		n := mtj.Spec(g).Inputs
		bits := make([]int, n)
		for i := range bits {
			bits[i] = int(inBits>>i) & 1
		}
		frac := float64(fracNum%128) / 100.0 // 0 .. 1.27
		interrupted := execGateWith(cfg, g, bits, func(int) float64 { return frac }, true)
		clean := execGateWith(cfg, g, bits, FullPulse, false)
		return interrupted == clean
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// execGateWith runs a gate with an optional interrupted first attempt
// followed by a full re-execution, returning the output bit.
func execGateWith(cfg *mtj.Config, g mtj.GateKind, bits []int, first PulseLength, interrupted bool) int {
	tile := NewTile(cfg, 8, 1)
	tile.SetActive([]uint16{0})
	inRows := make([]int, len(bits))
	for i, b := range bits {
		inRows[i] = i * 2
		tile.SetBit(i*2, 0, b)
	}
	tile.SetBit(1, 0, int(mtj.Spec(g).Preset.Bit()))
	if interrupted {
		if err := tile.ExecLogic(g, inRows, 1, first); err != nil {
			panic(err)
		}
	}
	if err := tile.ExecLogic(g, inRows, 1, FullPulse); err != nil {
		panic(err)
	}
	return tile.Bit(1, 0)
}

package array

import (
	"testing"

	"mouse/internal/isa"
)

// TestReplayCost prices hand-built programs: presets and logic cost
// every row word of every data tile on the packed machine and one lane
// word per active column on the lane machine; every op adds opWords of
// dispatch on both.
func TestReplayCost(t *testing.T) {
	logic := FlatOp{Kind: isa.KindLogic, NIn: 2, MinP: 1, In: [3]int{1, 3}, Out: 0}
	preset := FlatOp{Kind: isa.KindPreset, Row: 2, AP: true}
	read := FlatOp{Kind: isa.KindRead, Row: 1}
	act := func(broadcast bool, tile int, cols ...uint16) FlatOp {
		return FlatOp{Kind: isa.KindAct, Broadcast: broadcast, Tile: tile, Cols: cols}
	}
	all := make([]uint16, 70)
	for i := range all {
		all[i] = uint16(i)
	}
	cases := []struct {
		name        string
		fp          FlatProgram
		packed, lan int
	}{
		{"no columns active", FlatProgram{Tiles: 1, Rows: 8, Cols: 70,
			Ops: []FlatOp{preset, logic, read}}, 3*opWords + 2*2, 3 * opWords},
		{"partly active", FlatProgram{Tiles: 1, Rows: 8, Cols: 40,
			Ops: []FlatOp{act(true, 0, 0, 5, 9), preset, logic}}, 3*opWords + 2*1, 3*opWords + 2*3},
		{"fully active", FlatProgram{Tiles: 1, Rows: 8, Cols: 70,
			Ops: []FlatOp{act(true, 0, all...), logic, read, logic}}, 4*opWords + 2*2, 4*opWords + 2*70},
		{"multi-tile", FlatProgram{Tiles: 2, Rows: 8, Cols: 70,
			Ops: []FlatOp{
				act(false, 1, 0, 1, 2, 3), preset, // tile 1 only: 4
				act(true, 0, 7, 8, 9), logic, // both tiles: 6
				act(false, 0, 4), logic, // tile 0 only, tile 1 cleared: 1
			}}, 6*opWords + 3*2*2, 6*opWords + 4 + 6 + 1},
	}
	for _, tc := range cases {
		got := tc.fp.Cost()
		if got.Packed != tc.packed || got.Lane != tc.lan {
			t.Errorf("%s: cost %+v, want packed %d lane %d", tc.name, got, tc.packed, tc.lan)
		}
	}

	// The choice: packed while passes×Packed ≤ Lane.
	c := ReplayCost{Packed: 10, Lane: 125}
	for passes, want := range map[int]bool{1: true, 12: true, 13: false, 64: false} {
		if got := c.PreferPacked(passes); got != want {
			t.Errorf("PreferPacked(%d) on %+v = %v, want %v", passes, c, got, want)
		}
	}
	if (ReplayCost{Packed: 7, Lane: 3}).PreferPacked(1) {
		t.Error("an idle program preferred the packed pass over a cheaper lane replay")
	}
}

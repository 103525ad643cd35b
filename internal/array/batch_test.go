package array

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"mouse/internal/isa"
	"mouse/internal/mtj"
)

// Batch-engine geometry: two tiles so tile addressing and broadcast ACT
// differ, and a column count above one word so the scalar machine's
// multi-word rows, rotation across word boundaries, and tail masking
// are all in play.
const (
	batchTestTiles = 2
	batchTestRows  = 16
	batchTestCols  = 70
)

// randBatchProgram emits a valid random instruction stream: activation
// changes (broadcast and per-tile, list and range forms), presets,
// logic over every gate kind, reads, and rotated writes — the full
// datapath surface the batch replay must reproduce.
func randBatchProgram(rng *rand.Rand, n int) isa.Program {
	var p isa.Program
	p = append(p, isa.ActRange(true, 0, 0, batchTestCols, 1))
	for len(p) < n {
		switch rng.Intn(10) {
		case 0: // narrow list activation
			cols := make([]uint16, 1+rng.Intn(isa.MaxActList))
			for i := range cols {
				cols[i] = uint16(rng.Intn(batchTestCols + 8)) // some beyond width
			}
			p = append(p, isa.ActList(rng.Intn(2) == 0, rng.Intn(batchTestTiles), cols))
		case 1: // ranged activation
			p = append(p, isa.ActRange(rng.Intn(2) == 0, rng.Intn(batchTestTiles),
				rng.Intn(batchTestCols), 1+rng.Intn(batchTestCols), 1+rng.Intn(3)))
		case 2:
			p = append(p, isa.Preset(rng.Intn(batchTestRows), mtj.FromBit(rng.Intn(2))))
		case 3:
			p = append(p, isa.Read(rng.Intn(batchTestTiles), rng.Intn(batchTestRows)))
		case 4:
			p = append(p, isa.WriteRot(rng.Intn(batchTestTiles), rng.Intn(batchTestRows),
				rng.Intn(2*batchTestCols))) // exercises the width wrap
		default:
			g := mtj.GateKind(rng.Intn(mtj.NumGates))
			spec := mtj.Spec(g)
			out := rng.Intn(batchTestRows)
			// Inputs: distinct rows of the opposite parity.
			perm := rng.Perm(batchTestRows / 2)
			ins := make([]int, spec.Inputs)
			for i := range ins {
				ins[i] = perm[i]*2 + 1 - out&1
			}
			p = append(p, isa.Logic(g, ins, out))
		}
	}
	return p
}

// seedLane fills one scalar machine with lane's random initial cell
// states, and mirrors them into the batch machine when b is non-nil.
func seedLane(rng *rand.Rand, m *Machine, b *BatchMachine, lane int) {
	for ti, t := range m.Tiles {
		for r := 0; r < t.Rows(); r++ {
			for c := 0; c < t.Cols(); c++ {
				bit := rng.Intn(2)
				t.SetBit(r, c, bit)
				if b != nil {
					b.SetLaneBit(lane, ti, r, c, bit)
				}
			}
		}
	}
}

// requireLaneEqual extracts lane from the batch machine and compares
// every byte of non-volatile state (cells, buffer) plus the restored
// activation latches against the sequentially-run scalar machine.
func requireLaneEqual(t *testing.T, b *BatchMachine, lane int, want *Machine) {
	t.Helper()
	got := NewMachine(want.Cfg, len(want.Tiles), want.Tiles[0].Rows(), want.Tiles[0].Cols())
	if err := b.StoreLane(lane, got); err != nil {
		t.Fatalf("lane %d: %v", lane, err)
	}
	for ti := range want.Tiles {
		wt, gt := want.Tiles[ti], got.Tiles[ti]
		for r := 0; r < wt.Rows(); r++ {
			for c := 0; c < wt.Cols(); c++ {
				if wt.Bit(r, c) != gt.Bit(r, c) {
					t.Fatalf("lane %d: tile %d cell (%d, %d): sequential %d, batched %d",
						lane, ti, r, c, wt.Bit(r, c), gt.Bit(r, c))
				}
			}
		}
		wa, ga := wt.ActiveColumns(), gt.ActiveColumns()
		if len(wa) != len(ga) {
			t.Fatalf("lane %d: tile %d: active %v (sequential) vs %v (batched)", lane, ti, wa, ga)
		}
		for i := range wa {
			if wa[i] != ga[i] {
				t.Fatalf("lane %d: tile %d: active %v (sequential) vs %v (batched)", lane, ti, wa, ga)
			}
		}
	}
	if !bytes.Equal(want.Buffer, got.Buffer) {
		t.Fatalf("lane %d: buffer % x (sequential) vs % x (batched)", lane, want.Buffer, got.Buffer)
	}
}

// runBatchedVsSequential is the shared differential harness: lanes
// random initial states, one random program, executed lane-by-lane on
// fresh scalar machines (the k-th sequential run) and once on the batch
// machine; every lane must match byte for byte. Each lane's initial
// state is also replayed on the packed Machine, which must end in
// exactly the state Exec reaches: cells, buffer and activation latches.
func runBatchedVsSequential(t *testing.T, seed int64, lanes, progLen int) {
	t.Helper()
	cfg := mtj.ModernSTT()
	rng := rand.New(rand.NewSource(seed))
	prog := randBatchProgram(rng, progLen)
	flat, err := Flatten(prog, cfg, batchTestTiles, batchTestRows, batchTestCols)
	if err != nil {
		t.Fatal(err)
	}

	b := NewBatchMachine(batchTestTiles, batchTestRows, batchTestCols)
	seq := make([]*Machine, lanes)
	packed := make([]*Machine, lanes)
	for lane := 0; lane < lanes; lane++ {
		m := NewMachine(cfg, batchTestTiles, batchTestRows, batchTestCols)
		seedLane(rng, m, b, lane)
		seq[lane] = m
		packed[lane] = NewMachine(cfg, batchTestTiles, batchTestRows, batchTestCols)
		packed[lane].CopyStateFrom(m)
	}
	for lane, m := range seq {
		for i, in := range prog {
			if err := m.Exec(in); err != nil {
				t.Fatalf("lane %d: instruction %d (%v): %v", lane, i, in, err)
			}
		}
		if err := packed[lane].Replay(flat); err != nil {
			t.Fatal(err)
		}
		requirePackedEqual(t, packed[lane], lane, m)
	}
	if err := b.Replay(flat); err != nil {
		t.Fatal(err)
	}
	for lane, m := range seq {
		requireLaneEqual(t, b, lane, m)
	}
}

// requirePackedEqual compares a packed replay's full state — cells,
// activation latches with their cached counts, buffer — against the
// sequentially-run machine.
func requirePackedEqual(t *testing.T, got *Machine, lane int, want *Machine) {
	t.Helper()
	if got.StateEqual(want) {
		return
	}
	for ti, wt := range want.Tiles {
		gt := got.Tiles[ti]
		for r := 0; r < wt.Rows(); r++ {
			for c := 0; c < wt.Cols(); c++ {
				if wt.Bit(r, c) != gt.Bit(r, c) {
					t.Fatalf("lane %d: tile %d cell (%d, %d): sequential %d, packed replay %d",
						lane, ti, r, c, wt.Bit(r, c), gt.Bit(r, c))
				}
			}
		}
		if !slices.Equal(wt.ActiveColumns(), gt.ActiveColumns()) || wt.ActiveCount() != gt.ActiveCount() {
			t.Fatalf("lane %d: tile %d: active %v (sequential) vs %v (packed replay)",
				lane, ti, wt.ActiveColumns(), gt.ActiveColumns())
		}
	}
	t.Fatalf("lane %d: buffer % x (sequential) vs % x (packed replay)", lane, want.Buffer, got.Buffer)
}

// FuzzBatchedVsSequential: for random gate streams and batch sizes
// 1–64, batched lane k must be byte-identical to the k-th sequential
// run — the batch engine's core proof obligation, mirroring the
// packed-vs-scalar fuzz of the column engine.
func FuzzBatchedVsSequential(f *testing.F) {
	f.Add(int64(1), uint8(1))
	f.Add(int64(2), uint8(7))
	f.Add(int64(3), uint8(63))
	f.Add(int64(4), uint8(64))
	f.Add(int64(5), uint8(33))
	f.Fuzz(func(t *testing.T, seed int64, rawLanes uint8) {
		lanes := int(rawLanes)%MaxLanes + 1
		runBatchedVsSequential(t, seed, lanes, 48)
	})
}

// FuzzPackedReplayVsSequential: the packed Machine.Replay must reach
// exactly Exec's state on random gate streams of every length up to
// 255 — one lane of the shared harness, so the program, not the lane
// count, is what varies.
func FuzzPackedReplayVsSequential(f *testing.F) {
	f.Add(int64(1), uint8(1))
	f.Add(int64(2), uint8(48))
	f.Add(int64(3), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, progLen uint8) {
		runBatchedVsSequential(t, seed, 1, int(progLen)+1)
	})
}

// TestBatchedVsSequentialSweep pins the differential check across every
// batch size in a normal test run (the fuzzer's seed corpus only covers
// a handful).
func TestBatchedVsSequentialSweep(t *testing.T) {
	for lanes := 1; lanes <= MaxLanes; lanes++ {
		runBatchedVsSequential(t, int64(1000+lanes), lanes, 32)
	}
}

// TestBatchPackUnpackIdentity: LoadLane then StoreLane is the identity
// on a machine's non-volatile state, for every lane count and for every
// lane — the packing layer's round-trip property.
func TestBatchPackUnpackIdentity(t *testing.T) {
	cfg := mtj.ModernSTT()
	rng := rand.New(rand.NewSource(7))
	for _, lanes := range []int{1, 2, 3, 13, 32, 63, 64} {
		b := NewBatchMachine(batchTestTiles, batchTestRows, batchTestCols)
		src := make([]*Machine, lanes)
		for lane := 0; lane < lanes; lane++ {
			m := NewMachine(cfg, batchTestTiles, batchTestRows, batchTestCols)
			seedLane(rng, m, nil, 0)
			for i := range m.Buffer {
				m.Buffer[i] = byte(rng.Intn(256))
			}
			// Mask buffer bits beyond the column count, as ReadRow's
			// unpack leaves them zero.
			m.Buffer[len(m.Buffer)-1] &= 1<<(batchTestCols%8) - 1
			src[lane] = m
			if err := b.LoadLane(lane, m); err != nil {
				t.Fatal(err)
			}
		}
		for lane, m := range src {
			requireLaneEqual(t, b, lane, m)
		}
	}
}

// TestBatch64CopiesIdenticalOutputs: a batch of 64 copies of one input
// must produce 64 identical outputs — lanes cannot interfere.
func TestBatch64CopiesIdenticalOutputs(t *testing.T) {
	cfg := mtj.ModernSTT()
	rng := rand.New(rand.NewSource(11))
	prog := randBatchProgram(rng, 40)
	flat, err := Flatten(prog, cfg, batchTestTiles, batchTestRows, batchTestCols)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatchMachine(batchTestTiles, batchTestRows, batchTestCols)
	one := NewMachine(cfg, batchTestTiles, batchTestRows, batchTestCols)
	seedLane(rng, one, nil, 0)
	for lane := 0; lane < MaxLanes; lane++ {
		if err := b.LoadLane(lane, one); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Replay(flat); err != nil {
		t.Fatal(err)
	}
	for _, tile := range b.Tiles {
		for i, w := range tile.lanes {
			if w != 0 && w != ^uint64(0) {
				t.Fatalf("cell %d diverged across identical lanes: %#x", i, w)
			}
		}
	}
	for c, w := range b.Buffer {
		if w != 0 && w != ^uint64(0) {
			t.Fatalf("buffer column %d diverged across identical lanes: %#x", c, w)
		}
	}
}

// TestBatchReplayRejectsWrongGeometry: a program flattened for one
// geometry must not replay on another.
func TestBatchReplayRejectsWrongGeometry(t *testing.T) {
	cfg := mtj.ModernSTT()
	prog := isa.Program{isa.ActRange(true, 0, 0, 8, 1)}
	flat, err := Flatten(prog, cfg, 1, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := NewBatchMachine(1, 8, 16).Replay(flat); err == nil {
		t.Fatal("replay accepted a mismatched geometry")
	}
	if err := NewBatchMachine(2, 8, 8).Replay(flat); err == nil {
		t.Fatal("replay accepted a mismatched tile count")
	}
	for _, m := range []*Machine{NewMachine(cfg, 1, 8, 16), NewMachine(cfg, 1, 16, 8), NewMachine(cfg, 2, 8, 8)} {
		if err := m.Replay(flat); err == nil {
			t.Fatalf("packed replay accepted a %dx%dx%d machine", len(m.Tiles), m.Tiles[0].Rows(), m.Tiles[0].Cols())
		}
	}
	if err := NewMachine(cfg, 1, 8, 8).Replay(flat); err != nil {
		t.Fatal(err)
	}
}

// TestFlattenRejectsInvalidPrograms: flattening performs the scalar
// path's validation once, at compile time.
func TestFlattenRejectsInvalidPrograms(t *testing.T) {
	cfg := mtj.ModernSTT()
	cases := []struct {
		name string
		prog isa.Program
	}{
		{"row out of range", isa.Program{isa.Read(0, 12)}},
		{"tile out of range", isa.Program{isa.Read(3, 0)}},
		{"parity violation", isa.Program{{Kind: isa.KindLogic, Gate: mtj.NAND2, In: [3]uint16{1, 3}, Out: 5}}},
		{"act tile out of range", isa.Program{isa.ActList(false, 2, []uint16{0})}},
	}
	for _, tc := range cases {
		if _, err := Flatten(tc.prog, cfg, 2, 8, 8); err == nil {
			t.Errorf("%s: flatten accepted the program", tc.name)
		}
	}
}

package svm

import (
	"slices"
	"testing"

	"mouse/internal/mtj"
)

// batchFixture trains and compiles a small SV-parallel model plus a
// pool of input vectors for batching.
func batchFixture(t *testing.T, argmax bool) (*ParallelMapping, *IntModel, [][]int) {
	t.Helper()
	ds := tinySet(91, 6, 4)
	m, err := Train(ds, DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	im, err := m.Quantize(10)
	if err != nil {
		t.Fatal(err)
	}
	compile := CompileParallelMapping
	if argmax {
		compile = CompileParallelArgmax
	}
	mp, err := compile(im, 1024, 4)
	if err != nil {
		t.Fatal(err)
	}
	var samples [][]int
	for i := 0; len(samples) < 80; i++ {
		samples = append(samples, ds.Test[i%len(ds.Test)].X)
	}
	return mp, im, samples
}

// TestSVMBatchMatchesSequential: batched classification and scores must
// equal the sequential controller path sample for sample at every batch
// size 1–64, on one reused (unreset) engine whose consecutive batches
// alternate between the packed machine and the lane arena and shift
// through the sample pool — state leaking from one machine's run into
// the other's shows up as a wrong score.
func TestSVMBatchMatchesSequential(t *testing.T) {
	cfg := mtj.ModernSTT()
	mp, _, samples := batchFixture(t, false)
	eng, err := mp.NewBatchEngine(cfg, 1024)
	if err != nil {
		t.Fatal(err)
	}
	cost := eng.Cost()
	if !cost.PreferPacked(1) || cost.PreferPacked(64) {
		t.Fatalf("cost %+v does not put the crossover inside [1, 64]", cost)
	}
	mach := mp.NewMachine(cfg, 1024)
	wantScores := make([][]int64, len(samples))
	want := make([]int, len(samples))
	for i, x := range samples {
		if wantScores[i], err = mp.Scores(mach, x); err != nil {
			t.Fatal(err)
		}
		if want[i], err = mp.Classify(mach, x); err != nil {
			t.Fatal(err)
		}
	}
	// Sizes 1, 64, 2, 63, ...: small batches run packed, large ones on
	// the lane arena.
	for k := 0; k < 64; k++ {
		size := k/2 + 1
		if k%2 == 1 {
			size = 64 - k/2
		}
		off := k % (len(samples) - size + 1)
		batch := samples[off : off+size]
		scores, err := eng.ScoresBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.ClassifyBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		for i := range batch {
			if !slices.Equal(scores[i], wantScores[off+i]) {
				t.Fatalf("batch %d (packed %v) sample %d: batched scores %v, sequential %v",
					size, cost.PreferPacked(size), i, scores[i], wantScores[off+i])
			}
			if got[i] != want[off+i] {
				t.Fatalf("batch %d (packed %v) sample %d: batched class %d, sequential %d",
					size, cost.PreferPacked(size), i, got[i], want[off+i])
			}
		}
	}
}

// TestSVMBatchArgmaxMatchesSequential covers the in-array argmax
// tournament: the winner index extracted per lane must equal the
// sequential Classify answer.
func TestSVMBatchArgmaxMatchesSequential(t *testing.T) {
	cfg := mtj.ModernSTT()
	mp, _, samples := batchFixture(t, true)
	eng, err := mp.NewBatchEngine(cfg, 1024)
	if err != nil {
		t.Fatal(err)
	}
	mach := mp.NewMachine(cfg, 1024)
	packed, lanes := make([]int, 32), make([]int, 32)
	if err := eng.ClassifyPackedInto(packed, samples[:32]); err != nil {
		t.Fatal(err)
	}
	if err := eng.ClassifyLanesInto(lanes, samples[:32]); err != nil {
		t.Fatal(err)
	}
	for i, x := range samples[:32] {
		want, err := mp.Classify(mach, x)
		if err != nil {
			t.Fatal(err)
		}
		if packed[i] != want || lanes[i] != want {
			t.Fatalf("sample %d: argmax class %d packed, %d lanes, sequential %d", i, packed[i], lanes[i], want)
		}
	}
}

// TestSVMBatchMatchesGoldenModel pins the batched path directly to the
// fixed-point golden model, independent of the array paths.
func TestSVMBatchMatchesGoldenModel(t *testing.T) {
	cfg := mtj.ModernSTT()
	mp, im, samples := batchFixture(t, false)
	eng, err := mp.NewBatchEngine(cfg, 1024)
	if err != nil {
		t.Fatal(err)
	}
	scores, err := eng.ScoresBatch(samples[:64])
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range samples[:64] {
		want := im.Scores(x)
		for c := range want {
			if scores[i][c] != want[c] {
				t.Fatalf("sample %d class %d: batched score %d, golden %d", i, c, scores[i][c], want[c])
			}
		}
	}
}

// TestSVMBatchValidatesInput: bad batch shapes are rejected before any
// replay.
func TestSVMBatchValidatesInput(t *testing.T) {
	cfg := mtj.ModernSTT()
	mp, _, samples := batchFixture(t, false)
	eng, err := mp.NewBatchEngine(cfg, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ClassifyBatch(nil); err == nil {
		t.Error("accepted an empty batch")
	}
	if _, err := eng.ClassifyBatch(make([][]int, 65)); err == nil {
		t.Error("accepted a 65-sample batch")
	}
	if _, err := eng.ClassifyBatch([][]int{samples[0][:2]}); err == nil {
		t.Error("accepted a short feature vector")
	}
	if err := eng.ClassifyBatchInto(make([]int, 1), samples[:2]); err == nil {
		t.Error("accepted a short destination")
	}
}

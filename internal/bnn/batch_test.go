package bnn

import (
	"testing"

	"mouse/internal/dataset"
	"mouse/internal/mtj"
)

// TestBNNBatchMatchesSequential: the engine must classify exactly like
// the sequential column-batch path and the golden network at batch
// sizes on both sides of its packed/lane crossover — one sample, the
// column-batch edges, the crossover ±1 column batch, and capacity —
// on one reused (unreset) engine whose consecutive batches alternate
// between the packed machine and the lane arena and shift through the
// sample pool.
func TestBNNBatchMatchesSequential(t *testing.T) {
	cfg := mtj.ModernSTT()
	ds := tinyBinSet(43, 16, 3, 30)
	net, err := Train(ds, tinyConfig(16, 3), DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	const cols = 70 // two words per row: the packed kernels cross a word edge
	mp, err := CompileMapping(net, 1024, cols)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := mp.NewBatchEngine(cfg, 1024, net)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Capacity() != cols*64 {
		t.Fatalf("capacity %d, want %d", eng.Capacity(), cols*64)
	}
	cost := eng.Cost()
	crossover := cost.Lane / cost.Packed // most packed passes
	if crossover < 2 || crossover >= 64 {
		t.Fatalf("cost %+v puts the crossover at %d passes", cost, crossover)
	}
	c := crossover * cols
	sizes := []int{1, eng.Capacity(), cols - 1, c + cols, cols, c + 1, cols + 1, c - cols, c}
	mach := mp.NewMachine(cfg, 1024)

	var pool [][]int
	for i := 0; len(pool) < eng.Capacity()+len(sizes); i++ {
		pool = append(pool, ds.Test[i%len(ds.Test)].X)
	}
	// Sequential reference: the existing column-batch path, cols
	// samples per controller run, over the whole pool.
	want := make([]int, 0, len(pool))
	for start := 0; start < len(pool); start += cols {
		got, err := mp.ClassifyBatch(mach, net, pool[start:min(start+cols, len(pool))])
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, got...)
	}
	for k, size := range sizes {
		packed := cost.PreferPacked(eng.Passes(size))
		if packed != (size <= c) {
			t.Fatalf("batch %d: packed %v, crossover at %d samples", size, packed, c)
		}
		batch := pool[k : k+size]
		got, err := eng.ClassifyBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range batch {
			if got[i] != want[k+i] {
				t.Fatalf("batch %d (packed %v) sample %d: batched class %d, sequential %d", size, packed, i, got[i], want[k+i])
			}
			// And directly against the golden network model.
			scores := net.Scores(x)
			best := 0
			for c, s := range scores {
				if c == 0 || s > scores[best] {
					best = c
				}
			}
			if got[i] != best {
				t.Fatalf("batch %d sample %d: batched class %d, golden %d", size, i, got[i], best)
			}
		}
	}
}

// TestBNNBatch8BitInputs covers the word-per-feature loading path (the
// FP-BNN 8-bit first layer).
func TestBNNBatch8BitInputs(t *testing.T) {
	cfg := mtj.ModernSTT()
	ds := dataset.Adult(47, 120, 30)
	netCfg := Config{Name: "t8", In: 15, Hidden: []int{8}, Out: 2, InputBits: 8}
	net, err := Train(ds, netCfg, TrainConfig{Epochs: 8, LR: 0.01, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	const cols = 3
	mp, err := CompileMapping(net, 1024, cols)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := mp.NewBatchEngine(cfg, 1024, net)
	if err != nil {
		t.Fatal(err)
	}
	mach := mp.NewMachine(cfg, 1024)
	samples := make([][]int, 10)
	for i := range samples {
		samples[i] = ds.Test[i%len(ds.Test)].X
	}
	packed, lanes := make([]int, len(samples)), make([]int, len(samples))
	if err := eng.ClassifyPackedInto(packed, samples); err != nil {
		t.Fatal(err)
	}
	if err := eng.ClassifyLanesInto(lanes, samples); err != nil {
		t.Fatal(err)
	}
	for start := 0; start < len(samples); start += cols {
		end := start + cols
		if end > len(samples) {
			end = len(samples)
		}
		want, err := mp.ClassifyBatch(mach, net, samples[start:end])
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range want {
			if packed[start+i] != w || lanes[start+i] != w {
				t.Fatalf("sample %d: class %d packed, %d lanes, sequential %d", start+i, packed[start+i], lanes[start+i], w)
			}
		}
	}
}

// TestBNNBatchValidatesInput: shape errors are caught before replay.
func TestBNNBatchValidatesInput(t *testing.T) {
	cfg := mtj.ModernSTT()
	ds := tinyBinSet(49, 16, 3, 20)
	net, err := Train(ds, tinyConfig(16, 3), DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	mp, err := CompileMapping(net, 1024, 2)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := mp.NewBatchEngine(cfg, 1024, net)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ClassifyBatch(nil); err == nil {
		t.Error("accepted an empty batch")
	}
	if _, err := eng.ClassifyBatch(make([][]int, eng.Capacity()+1)); err == nil {
		t.Error("accepted an oversized batch")
	}
	if _, err := eng.ClassifyBatch([][]int{ds.Test[0].X[:3]}); err == nil {
		t.Error("accepted a short feature vector")
	}
}

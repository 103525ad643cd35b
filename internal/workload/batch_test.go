package workload

import (
	"testing"
)

// TestHotBatchesMatchSequential: every registry entry's batched
// classifier must agree label-for-label with its sequential reference
// at batch sizes on both sides of the engine's packed/lane crossover,
// on one reused engine whose consecutive batches alternate paths and
// shift through the sample pool, so state leaking between the packed
// machine and the lane arena shows up as a wrong label.
func TestHotBatchesMatchSequential(t *testing.T) {
	engines := map[string]fillEngine{}
	for _, e := range hotFillEngines(t) {
		engines[e.name] = e
	}
	for _, hb := range HotBatches() {
		hb := hb
		t.Run(hb.Name, func(t *testing.T) {
			if hb.Capacity <= 0 || hb.LaneWidth <= 0 || hb.Capacity%hb.LaneWidth != 0 {
				t.Fatalf("degenerate shape: capacity %d, lane width %d", hb.Capacity, hb.LaneWidth)
			}
			e, ok := engines[hb.Name]
			if !ok {
				t.Fatalf("no fill sweep for %s", hb.Name)
			}
			sizes := e.sweep(t, hb.LaneWidth, hb.Capacity)
			batched, err := hb.NewBatched()
			if err != nil {
				t.Fatal(err)
			}
			sequential, err := hb.NewSequential()
			if err != nil {
				t.Fatal(err)
			}
			// Batch k is pool[k : k+n]. Sequential labels depend on the
			// sample alone, so one sequential pass over the pool serves
			// every batch.
			pool := hb.Samples(hb.Capacity + len(sizes))
			want, err := sequential(pool)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) != len(pool) {
				t.Fatalf("%d sequential labels for %d samples", len(want), len(pool))
			}
			for k, n := range sizes {
				got, err := batched(pool[k : k+n])
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != n {
					t.Fatalf("batch %d (%d samples): %d labels", k, n, len(got))
				}
				for i := range got {
					if got[i] != want[k+i] {
						t.Fatalf("batch %d (%d samples, packed %v) sample %d: batched class %d, sequential %d",
							k, n, e.prefersPacked(n), i, got[i], want[k+i])
					}
				}
			}
		})
	}
}

// TestHotBatchByName: lookup resolves registry names and rejects
// unknown ones.
func TestHotBatchByName(t *testing.T) {
	for _, hb := range HotBatches() {
		got, err := HotBatchByName(hb.Name)
		if err != nil || got.Name != hb.Name {
			t.Fatalf("lookup %q: %v %v", hb.Name, got.Name, err)
		}
	}
	if _, err := HotBatchByName("nope"); err == nil {
		t.Fatal("unknown hot batch accepted")
	}
}

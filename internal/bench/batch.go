package bench

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"mouse/internal/array"
	"mouse/internal/pool"
	"mouse/internal/workload"
)

// The batch throughput experiment: replay the hot inference workloads
// (internal/workload's compile-once batch recipes) through the
// bit-sliced engine at a chosen lane count and report host ns per
// inference against the sequential controller path — the PR's headline
// number, recorded in the BENCH_*.json trajectory. The experiment also
// re-verifies batched-vs-sequential label equality inline: a speedup
// with mismatches is not a result.

// BatchRow is one hot workload's batched-vs-sequential comparison.
type BatchRow struct {
	// Workload names the internal/workload hot-batch entry.
	Workload string
	// Lanes is the bit-slice width used (1–64); SamplesPerBatch is
	// Lanes times the mapping's column batch.
	Lanes           int
	SamplesPerBatch int
	// Batches is the number of timed batched replays.
	Batches int
	// Mismatches counts batched labels that disagreed with the
	// sequential path (always 0 on a correct engine).
	Mismatches int
	// NsSequential and NsBatched are host nanoseconds per inference on
	// each path; Speedup is their ratio. All three are measured wall
	// clock, so Normalize zeroes them.
	NsSequential float64
	NsBatched    float64
	Speedup      float64
}

// batchTimedReplays fixes the timed batched-replay count so the row
// shape is machine-independent.
const batchTimedReplays = 8

// ComputeBatch times every hot workload at the given lane count.
// Workloads run as independent jobs on the sweep pool. The experiment
// measures host throughput, not simulated energy, so it takes no
// observer.
func ComputeBatch(lanes, workers int) ([]BatchRow, error) {
	if lanes < 1 || lanes > array.MaxLanes {
		return nil, fmt.Errorf("bench: batch lanes %d outside [1, %d]", lanes, array.MaxLanes)
	}
	hbs := workload.HotBatches()
	return pool.Jobs(workers, len(hbs), func(i int) (BatchRow, error) {
		return computeBatchRow(hbs[i], lanes)
	})
}

func computeBatchRow(hb workload.HotBatch, lanes int) (BatchRow, error) {
	row := BatchRow{
		Workload:        hb.Name,
		Lanes:           lanes,
		SamplesPerBatch: lanes * hb.LaneWidth,
		Batches:         batchTimedReplays,
	}
	batched, err := hb.NewBatched()
	if err != nil {
		return row, fmt.Errorf("bench: %s: %w", hb.Name, err)
	}
	sequential, err := hb.NewSequential()
	if err != nil {
		return row, fmt.Errorf("bench: %s: %w", hb.Name, err)
	}
	samples := hb.Samples(row.SamplesPerBatch)
	if len(samples) != row.SamplesPerBatch {
		return row, fmt.Errorf("bench: %s: sample pool came up short", hb.Name)
	}

	// Inline equivalence check (and warm-up for both paths).
	start := time.Now()
	want, err := sequential(samples)
	if err != nil {
		return row, fmt.Errorf("bench: %s sequential: %w", hb.Name, err)
	}
	seqSeconds := time.Since(start).Seconds()
	got, err := batched(samples)
	if err != nil {
		return row, fmt.Errorf("bench: %s batched: %w", hb.Name, err)
	}
	for i := range want {
		if got[i] != want[i] {
			row.Mismatches++
		}
	}

	start = time.Now()
	for b := 0; b < batchTimedReplays; b++ {
		if _, err := batched(samples); err != nil {
			return row, fmt.Errorf("bench: %s batched: %w", hb.Name, err)
		}
	}
	batchSeconds := time.Since(start).Seconds()

	row.NsSequential = seqSeconds * 1e9 / float64(len(samples))
	row.NsBatched = batchSeconds * 1e9 / float64(batchTimedReplays*len(samples))
	if row.NsBatched > 0 {
		row.Speedup = row.NsSequential / row.NsBatched
	}
	return row, nil
}

// writeBatch renders the batch experiment. The registry's table keeps
// to the deterministic columns — every hot workload's batched labels
// matched sequential — so it is byte-identical across runs and
// parallelism; wallClock (the mousebench -batch view) adds the host
// ns/inference timings, which vary run to run.
func writeBatch(w io.Writer, rows []BatchRow, wallClock bool) error {
	lanes := 0
	if len(rows) > 0 {
		lanes = rows[0].Lanes
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	if wallClock {
		fmt.Fprintf(w, "Batch inference throughput — %d bit-slice lanes, host ns/inference\n", lanes)
		fmt.Fprintln(tw, "workload\tlanes\tsamples/batch\tns/inf seq\tns/inf batched\tspeedup\tmismatches")
		for _, r := range rows {
			fmt.Fprintf(tw, "%s\t%d\t%d\t%.0f\t%.0f\t%.1fx\t%d\n",
				r.Workload, r.Lanes, r.SamplesPerBatch, r.NsSequential, r.NsBatched, r.Speedup, r.Mismatches)
		}
		return tw.Flush()
	}
	fmt.Fprintf(w, "Batch inference equivalence — %d bit-slice lanes (timings: mousebench -batch %d)\n", lanes, lanes)
	fmt.Fprintln(tw, "workload\tlanes\tsamples/batch\tmismatches")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\n", r.Workload, r.Lanes, r.SamplesPerBatch, r.Mismatches)
	}
	return tw.Flush()
}

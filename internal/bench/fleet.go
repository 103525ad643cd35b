package bench

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"mouse/internal/fleet"
	"mouse/internal/pool"
	"mouse/internal/workload"
)

// The fleet serving experiment: stand up a small inference fleet
// (internal/fleet) per hot workload and power mode, drive it with the
// open-loop load generator, and record request latency percentiles
// under harvested vs continuous power. The outcome counters and label
// agreement are the deterministic simulation output; the latency
// percentiles are host wall clock, so Normalize zeroes them and the
// registry table prints only the counters.

// FleetRow is one (workload, power mode) serving run.
type FleetRow struct {
	// Workload names the internal/workload hot-batch entry served.
	Workload string
	// Power is the fleet's power mode ("continuous" or "harvested").
	Power string
	// Devices, Requests, SamplesPerRequest fix the load shape.
	Devices           int
	Requests          int
	SamplesPerRequest int
	// OK, Rejected, Errors partition the requests; the admission queue
	// is sized past the offered load, so Rejected and Errors are 0 on a
	// correct fleet.
	OK       int
	Rejected int
	Errors   int
	// Mismatches counts served labels that disagreed with the offline
	// batch classifier (always 0 on a correct fleet).
	Mismatches int
	// P50Ms, P99Ms, MeanMs are host milliseconds per request — wall
	// clock, zeroed by Normalize.
	P50Ms  float64
	P99Ms  float64
	MeanMs float64
}

// The fixed load shape: small enough to finish in well under a second
// per combination, deep enough that batching and (in harvested mode)
// recharge stalls are actually exercised.
const (
	fleetBenchDevices  = 2
	fleetBenchRequests = 24
	fleetBenchBatch    = 8
	fleetBenchQueue    = 32 // > fleetBenchRequests: no deterministic-run rejections
	fleetBenchLinger   = 200 * time.Microsecond
	fleetBenchHarvestW = 0.05
	fleetBenchSampleJ  = 1e-6
)

// ComputeFleet serves every hot workload under both power modes, one
// fleet per combination, as independent jobs on the sweep pool. The
// experiment measures serving behaviour, not simulated device energy,
// so it takes no observer.
func ComputeFleet(workers int) ([]FleetRow, error) {
	type combo struct {
		hb   workload.HotBatch
		mode fleet.PowerMode
	}
	var combos []combo
	for _, hb := range workload.HotBatches() {
		for _, mode := range []fleet.PowerMode{fleet.Continuous, fleet.Harvested} {
			combos = append(combos, combo{hb, mode})
		}
	}
	return pool.Jobs(workers, len(combos), func(i int) (FleetRow, error) {
		return computeFleetRow(combos[i].hb, combos[i].mode)
	})
}

func computeFleetRow(hb workload.HotBatch, mode fleet.PowerMode) (FleetRow, error) {
	row := FleetRow{
		Workload:          hb.Name,
		Power:             string(mode),
		Devices:           fleetBenchDevices,
		Requests:          fleetBenchRequests,
		SamplesPerRequest: fleetBenchBatch,
	}
	cfg := fleet.DefaultConfig()
	cfg.Devices = fleetBenchDevices
	cfg.QueueDepth = fleetBenchQueue
	cfg.BatchLinger = fleetBenchLinger
	cfg.Mode = mode
	cfg.HarvestW = fleetBenchHarvestW
	cfg.EnergyPerSampleJ = fleetBenchSampleJ
	cfg.Workloads = []string{hb.Name}
	f, err := fleet.New(cfg)
	if err != nil {
		return row, fmt.Errorf("bench: %s/%s: %w", hb.Name, mode, err)
	}
	defer f.Stop()

	// Golden labels from the offline batch classifier, chunk by chunk:
	// lanes are independent, so the fleet's coalesced batches must agree
	// bit for bit.
	offline, err := hb.NewBatched()
	if err != nil {
		return row, fmt.Errorf("bench: %s: %w", hb.Name, err)
	}
	samples := hb.Samples(fleetBenchRequests * fleetBenchBatch)
	expected := make([]int, 0, len(samples))
	for i := 0; i < fleetBenchRequests; i++ {
		preds, err := offline(samples[i*fleetBenchBatch : (i+1)*fleetBenchBatch])
		if err != nil {
			return row, fmt.Errorf("bench: %s offline: %w", hb.Name, err)
		}
		expected = append(expected, preds...)
	}

	rep, err := fleet.RunLoad(
		fleet.LoadConfig{Requests: fleetBenchRequests, BatchSize: fleetBenchBatch, Expected: expected},
		samples,
		func(chunk [][]int) ([]int, error) { return f.Infer(context.Background(), hb.Name, chunk) },
	)
	if err != nil {
		return row, fmt.Errorf("bench: %s/%s load: %w", hb.Name, mode, err)
	}
	row.OK = rep.OK
	row.Rejected = rep.Rejected
	row.Errors = rep.Errors
	row.Mismatches = rep.Mismatches
	row.P50Ms = rep.P50.Seconds() * 1e3
	row.P99Ms = rep.P99.Seconds() * 1e3
	row.MeanMs = rep.Mean.Seconds() * 1e3
	return row, nil
}

// writeFleet renders the fleet experiment. The registry's table keeps
// to the deterministic columns — every request served, none rejected or
// wrong, under both power modes — so it is byte-identical across runs
// and parallelism; wallClock (the mousebench -fleet view) adds the
// per-request latency percentiles, which vary run to run.
func writeFleet(w io.Writer, rows []FleetRow, wallClock bool) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	if wallClock {
		fmt.Fprintf(w, "Fleet serving latency — %d devices, %d requests x %d samples, host ms/request\n",
			fleetBenchDevices, fleetBenchRequests, fleetBenchBatch)
		fmt.Fprintln(tw, "workload\tpower\tok\trejected\terrors\tmismatches\tp50 ms\tp99 ms\tmean ms")
		for _, r := range rows {
			fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\t%.2f\t%.2f\t%.2f\n",
				r.Workload, r.Power, r.OK, r.Rejected, r.Errors, r.Mismatches, r.P50Ms, r.P99Ms, r.MeanMs)
		}
		return tw.Flush()
	}
	fmt.Fprintf(w, "Fleet serving equivalence — %d devices, %d requests x %d samples (latencies: mousebench -fleet)\n",
		fleetBenchDevices, fleetBenchRequests, fleetBenchBatch)
	fmt.Fprintln(tw, "workload\tpower\tok\trejected\terrors\tmismatches")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\n",
			r.Workload, r.Power, r.OK, r.Rejected, r.Errors, r.Mismatches)
	}
	return tw.Flush()
}

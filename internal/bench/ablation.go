package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"mouse/internal/energy"
	"mouse/internal/fft"
	"mouse/internal/isa"
	"mouse/internal/mtj"
	"mouse/internal/pool"
	"mouse/internal/power"
	"mouse/internal/probe"
	"mouse/internal/sim"
	"mouse/internal/workload"
)

// Ablations and analyses beyond the paper's tables: the design-choice
// studies DESIGN.md calls out.

// RobustnessRow is one gate's process-variation tolerance across the
// three configurations.
type RobustnessRow struct {
	Gate      mtj.GateKind
	ModernSTT float64
	ProjSTT   float64
	SHE       float64
}

// ComputeRobustness quantifies Section II-D's robustness claim: the
// largest relative MTJ resistance variation each gate tolerates. One
// pool job per gate.
func ComputeRobustness(workers int) []RobustnessRow {
	n := int(mtj.NumGates)
	rows, _ := pool.Jobs(workers, n, func(i int) (RobustnessRow, error) {
		g := mtj.GateKind(i)
		return RobustnessRow{
			Gate:      g,
			ModernSTT: mtj.VariationTolerance(g, mtj.ModernSTT()),
			ProjSTT:   mtj.VariationTolerance(g, mtj.ProjectedSTT()),
			SHE:       mtj.VariationTolerance(g, mtj.ProjectedSHE()),
		}, nil
	})
	return rows
}

// writeRobustness renders the variation-tolerance study, closing with
// each configuration's array-level limit (its least tolerant gate).
func writeRobustness(w io.Writer, rows []RobustnessRow) error {
	fmt.Fprintln(w, "Robustness — tolerated MTJ resistance variation (±%), per gate (Section II-D)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "gate\tModern STT\tProjected STT\tSHE")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%.1f\n", r.Gate, r.ModernSTT*100, r.ProjSTT*100, r.SHE*100)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	mt, mg := mtj.MinVariationTolerance(mtj.ModernSTT())
	pt, pg := mtj.MinVariationTolerance(mtj.ProjectedSTT())
	st, sg := mtj.MinVariationTolerance(mtj.ProjectedSHE())
	_, err := fmt.Fprintf(w, "array-level limits: Modern %.1f%% (%v), Projected %.1f%% (%v), SHE %.1f%% (%v)\n",
		mt*100, mg, pt*100, pg, st*100, sg)
	return err
}

// CheckpointRow is one point of the checkpoint-interval sweep.
type CheckpointRow struct {
	Interval int
	energy.Breakdown
}

// ComputeCheckpointSweep runs a benchmark at 60 µW with checkpoint
// intervals of 1 (MOUSE's design point), 8 and 64 instructions — the
// frequency trade-off of Section IV-D. One pool job per interval.
func ComputeCheckpointSweep(cfg *mtj.Config, benchmark string, workers int, obs probe.Observer) ([]CheckpointRow, error) {
	spec, err := workload.ByName(benchmark)
	if err != nil {
		return nil, err
	}
	intervals := []int{1, 8, 64}
	return pool.Jobs(workers, len(intervals), func(i int) (CheckpointRow, error) {
		interval := intervals[i]
		r := sim.NewRunner(energy.NewModel(cfg))
		r.Obs = obs
		h := power.NewHarvester(power.Constant{W: 60e-6}, cfg.CapC, cfg.CapVMin, cfg.CapVMax)
		res, err := r.RunWithCheckpointInterval(spec.Stream(), h, interval)
		if err != nil {
			return CheckpointRow{}, fmt.Errorf("interval %d: %w", interval, err)
		}
		return CheckpointRow{Interval: interval, Breakdown: res.Breakdown}, nil
	})
}

// writeCheckpointSweep renders the checkpoint-interval ablation of the
// named benchmark and configuration.
func writeCheckpointSweep(w io.Writer, benchmark, cfg string, rows []CheckpointRow) error {
	fmt.Fprintf(w, "Checkpoint-interval ablation — %s, %s at 60 µW (Section IV-D trade-off)\n", benchmark, cfg)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "interval\ttotal E (µJ)\tbackup (µJ)\tdead (µJ)\tlatency (s)\trestarts")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%.3f\t%.4f\t%.4f\t%.4g\t%d\n",
			r.Interval, r.TotalEnergy()*1e6, r.BackupEnergy*1e6, r.DeadEnergy*1e6, r.TotalLatency(), r.Restarts)
	}
	return tw.Flush()
}

// ParallelismRow is one configuration's power-budget parallelism limit
// (Section IV-C).
type ParallelismRow struct {
	Config string
	// FullCols and HeadroomCols are the active-column caps with no
	// energy headroom and with 2× headroom.
	FullCols, HeadroomCols int
	// PeakPowerW is the instantaneous draw of a NAND2 issued at the
	// full width.
	PeakPowerW float64
}

// ComputeParallelism evaluates the parallelism budget per configuration.
func ComputeParallelism() []ParallelismRow {
	var rows []ParallelismRow
	for _, cfg := range mtj.Configs() {
		m := energy.NewModel(cfg)
		full := sim.MaxParallelColumns(m, 1.0)
		half := sim.MaxParallelColumns(m, 2.0)
		op := energy.Op{Kind: isa.KindLogic, Gate: mtj.NAND2, ActivePairs: full}
		rows = append(rows, ParallelismRow{
			Config:       cfg.Name,
			FullCols:     full,
			HeadroomCols: half,
			PeakPowerW:   m.Energy(op) / m.CycleTime(),
		})
	}
	return rows
}

// writeParallelism renders the power-budget parallelism limits
// (Section IV-C: tuning power draw by adjusting parallelism).
func writeParallelism(w io.Writer, rows []ParallelismRow) error {
	fmt.Fprintln(w, "Parallelism budget — max simultaneously active columns per buffer discharge (Section IV-C)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "configuration\tno headroom\t2x headroom\tpeak power at that width")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d cols\t%d cols\t%.3g W\n", r.Config, r.FullCols, r.HeadroomCols, r.PeakPowerW)
	}
	return tw.Flush()
}

// FFTRow is one row of the related-work FFT comparison (Section X).
type FFTRow struct {
	System     string
	LatencySec float64
	EnergyJ    float64
}

// ComputeFFT runs the CRAFFT-style 1024-point FFT workload on each MOUSE
// configuration under continuous power (one pool job per configuration)
// and lists the paper's reference systems alongside.
func ComputeFFT(workers int, obs probe.Observer) ([]FFTRow, error) {
	p := fft.MiBenchParams()
	rows := []FFTRow{
		{System: "NVP (THU1010N) [57]", LatencySec: fft.NVPLatency},
		{System: "CRAFFT on CRAM [19]", LatencySec: fft.CRAFFTLatency},
	}
	cfgs := mtj.Configs()
	mouseRows, err := pool.Jobs(workers, len(cfgs), func(i int) (FFTRow, error) {
		cfg := cfgs[i]
		s, err := fft.Stream(p)
		if err != nil {
			return FFTRow{}, err
		}
		r := sim.NewRunner(energy.NewModel(cfg))
		r.Obs = obs
		res := r.RunContinuous(s)
		return FFTRow{
			System:     "MOUSE " + cfg.Name + " (intermittent-safe)",
			LatencySec: res.OnLatency,
			EnergyJ:    res.TotalEnergy(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return append(rows, mouseRows...), nil
}

// writeFFT renders the FFT comparison.
func writeFFT(w io.Writer, rows []FFTRow) error {
	fmt.Fprintf(w, "Related-work FFT comparison — %s transform (Section X)\n", fft.MiBenchParams())
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "system\tlatency (ms)\tenergy (µJ)")
	for _, r := range rows {
		e := "-"
		if r.EnergyJ > 0 {
			e = fmt.Sprintf("%.2f", r.EnergyJ*1e6)
		}
		fmt.Fprintf(tw, "%s\t%.3f\t%s\n", r.System, r.LatencySec*1e3, e)
	}
	return tw.Flush()
}

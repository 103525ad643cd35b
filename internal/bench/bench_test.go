package bench

import (
	"bytes"
	"strings"
	"testing"

	"mouse/internal/mtj"
)

func TestTableIAllCasesSafe(t *testing.T) {
	for _, cfg := range mtj.Configs() {
		for _, r := range ComputeTableI(cfg) {
			if r.Output != r.Correct {
				t.Errorf("%s: AND(%d,%d) after interrupt = %d, want %d",
					cfg.Name, r.InputA, r.InputB, r.Output, r.Correct)
			}
		}
	}
	// The impossible quadrant: a should-not-switch gate never switches,
	// even with a full first pulse.
	rows := ComputeTableI(mtj.ModernSTT())
	if rows[1].SwitchedBeforeInterrupt {
		t.Errorf("AND(1,1) switched before the interrupt — physically impossible")
	}
	// The bottom-right quadrant: a full pulse switched the output, and
	// the repeat left it switched.
	if !rows[3].SwitchedBeforeInterrupt || rows[3].Output != 0 {
		t.Errorf("AND(0,1) completed case wrong: %+v", rows[3])
	}
}

func TestTableIIIMatchesPaper(t *testing.T) {
	want := map[string][3]float64{ // benchmark -> modern, projected, SHE
		"SVM MNIST":       {50.98, 38.67, 77.35},
		"SVM MNIST (Bin)": {5.43 * 8 / 6.37, 0, 0}, // ratio only, see below
	}
	_ = want
	rows := ComputeTableIII()
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.SHE != 2*r.ProjSTT {
			t.Errorf("%s: SHE area %.2f != 2× projected %.2f", r.Benchmark, r.SHE, r.ProjSTT)
		}
		if r.ProjSTT >= r.ModernSTT {
			t.Errorf("%s: projected area %.2f not below modern %.2f", r.Benchmark, r.ProjSTT, r.ModernSTT)
		}
	}
	// The 64 MB MNIST row reproduces the paper exactly.
	if m := rows[0].ModernSTT; m < 50.8 || m > 51.2 {
		t.Errorf("SVM MNIST modern area %.2f, want ≈50.98", m)
	}
	if p := rows[0].ProjSTT; p < 38.5 || p > 38.9 {
		t.Errorf("SVM MNIST projected area %.2f, want ≈38.67", p)
	}
}

func TestTableIVRows(t *testing.T) {
	rows := ComputeTableIV(0, nil)
	if len(rows) != 6+4+4+2 {
		t.Fatalf("%d rows, want 16", len(rows))
	}
	var mouseBin, sonicMNIST *TableIVRow
	for i := range rows {
		r := &rows[i]
		if strings.HasPrefix(r.System, "MOUSE") {
			if r.LatencyUS <= 0 || r.EnergyUJ <= 0 || r.AreaMM2 <= 0 {
				t.Errorf("%s/%s: non-positive metrics %+v", r.System, r.Benchmark, r)
			}
		}
		if r.Benchmark == "SVM MNIST (Bin)" {
			mouseBin = r
		}
		if r.System == "SONIC" && r.Benchmark == "MNIST" {
			sonicMNIST = r
		}
	}
	if mouseBin == nil || sonicMNIST == nil {
		t.Fatalf("missing rows")
	}
	// The headline claims: orders of magnitude better energy than SONIC
	// and the CPU, with competitive-or-better latency.
	if mouseBin.EnergyUJ*10 > sonicMNIST.EnergyUJ {
		t.Errorf("MOUSE energy %.1f µJ not ≥10× below SONIC's %.1f µJ", mouseBin.EnergyUJ, sonicMNIST.EnergyUJ)
	}
	if mouseBin.LatencyUS > sonicMNIST.LatencyUS/10 {
		t.Errorf("MOUSE latency %.0f µs not far below SONIC's %.0f µs", mouseBin.LatencyUS, sonicMNIST.LatencyUS)
	}
}

func TestFig9Shapes(t *testing.T) {
	cfg := mtj.ModernSTT()
	powers := []float64{60e-6, 500e-6, 5e-3}
	points, err := ComputeFig9(cfg, powers, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Latency decreases monotonically with power for every system.
	series := map[string][]Fig9Point{}
	for _, p := range points {
		series[p.System] = append(series[p.System], p)
	}
	if len(series) != 8 { // 6 benchmarks + 2 SONIC curves
		t.Fatalf("%d series", len(series))
	}
	for sys, pts := range series {
		for i := 1; i < len(pts); i++ {
			if pts[i].LatencySec >= pts[i-1].LatencySec {
				t.Errorf("%s: latency did not fall with power (%.3g → %.3g s)", sys, pts[i-1].LatencySec, pts[i].LatencySec)
			}
		}
	}
	// MOUSE beats SONIC at every power level on the shared benchmarks
	// (Section IX: "significantly lower latency than SONIC, even with a
	// much lower power budget").
	for i := range powers {
		if series["SVM MNIST"][i].LatencySec >= series["SONIC MNIST"][i].LatencySec {
			t.Errorf("MNIST at %.3g W: MOUSE %.3g s not below SONIC %.3g s",
				powers[i], series["SVM MNIST"][i].LatencySec, series["SONIC MNIST"][i].LatencySec)
		}
		if series["SVM HAR"][i].LatencySec >= series["SONIC HAR"][i].LatencySec {
			t.Errorf("HAR at %.3g W: MOUSE not below SONIC", powers[i])
		}
	}
	// Restarts shrink with power.
	low, high := series["SVM MNIST"][0], series["SVM MNIST"][len(powers)-1]
	if low.Restarts <= high.Restarts {
		t.Errorf("restarts did not shrink with power: %d vs %d", low.Restarts, high.Restarts)
	}
}

func TestSHEHasLowestLatencyAtLowPower(t *testing.T) {
	// Section IX: SHE's energy efficiency gives it the latency advantage
	// under harvesting.
	for _, name := range []string{"SVM MNIST (Bin)", "BNN FINN MNIST"} {
		var lat [3]float64
		for i, cfg := range mtj.Configs() {
			points, err := ComputeFig9(cfg, []float64{60e-6}, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range points {
				if p.System == name {
					lat[i] = p.LatencySec
				}
			}
		}
		if !(lat[2] < lat[1] && lat[1] < lat[0]) {
			t.Errorf("%s @60µW: latencies modern=%.3g projected=%.3g SHE=%.3g not strictly improving",
				name, lat[0], lat[1], lat[2])
		}
	}
}

func TestCrossoverPower(t *testing.T) {
	cfg := mtj.ModernSTT()
	p, err := CrossoverPowerW(cfg, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p <= 0 {
		t.Fatalf("crossover power %g", p)
	}
	t.Logf("FP-BNN / SVM-bin latency crossover at %.3g W", p)
	// Below the crossover the energy-hungrier FP-BNN must be slower.
	points, err := ComputeFig9(cfg, []float64{60e-6}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var fp, bin float64
	for _, pt := range points {
		switch pt.System {
		case "BNN FPBNN MNIST":
			fp = pt.LatencySec
		case "SVM MNIST (Bin)":
			bin = pt.LatencySec
		}
	}
	if fp <= bin {
		t.Errorf("at 60 µW FP-BNN (%.3g s) should be slower than SVM bin (%.3g s)", fp, bin)
	}
}

func TestBreakdownShares(t *testing.T) {
	var dead [3]float64
	for i, cfg := range mtj.Configs() {
		rows, err := ComputeBreakdown(cfg, 60e-6, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 6 {
			t.Fatalf("%d rows", len(rows))
		}
		backup, d, restore := AverageShares(rows)
		dead[i] = d
		// Overheads are a small fraction of total energy (Section IX).
		if backup > 0.05 || d > 0.15 || restore > 0.05 {
			t.Errorf("%s: shares too large: backup=%.3f dead=%.3f restore=%.3f", cfg.Name, backup, d, restore)
		}
		for _, r := range rows {
			if r.TotalLatency() <= 0 || r.TotalEnergy() <= 0 {
				t.Errorf("%s/%s: empty breakdown", cfg.Name, r.Benchmark)
			}
			// At 60 µW the STT configurations spend most time charging
			// (Section IX); SHE is efficient enough that some benchmarks
			// run largely on live harvest.
			if cfg.Cell == mtj.STT && r.OffLatency < r.OnLatency {
				t.Errorf("%s/%s: at 60 µW most time should be spent charging", cfg.Name, r.Benchmark)
			}
		}
	}
	// Dead share decreases with energy efficiency: Modern ≥ Projected ≥ SHE.
	if !(dead[0] >= dead[1] && dead[1] >= dead[2]) {
		t.Errorf("dead shares not decreasing: modern=%.4f projected=%.4f SHE=%.4f", dead[0], dead[1], dead[2])
	}
}

// printRows renders rows through PrintTables as the named experiment's
// one-experiment report.
func printRows(t *testing.T, experiment string, rows any) string {
	t.Helper()
	var buf bytes.Buffer
	rep := &Report{Experiments: []ExperimentReport{{Name: experiment, Rows: rows}}}
	if err := PrintTables(&buf, rep, false); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestPrintersProduceOutput(t *testing.T) {
	breakdown, err := ComputeBreakdown(mtj.ProjectedSHE(), 60e-6, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := printRows(t, "table1", ComputeTableI(mtj.ModernSTT())) +
		printRows(t, "table2", ComputeTableII()) +
		printRows(t, "table3", ComputeTableIII()) +
		printRows(t, "table4", ComputeTableIV(0, nil)) +
		printRows(t, "fig12", breakdown)
	for _, want := range []string{"Table I", "Table II", "Table III", "Table IV", "Fig. 12", "SONIC", "SVM MNIST"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestPrintFig9(t *testing.T) {
	cfg := mtj.ProjectedSHE()
	points, err := ComputeFig9(cfg, Powers(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(printRows(t, "fig9", []Fig9Sweep{{Config: cfg.Name, Points: points}}), "SONIC MNIST") {
		t.Errorf("Fig. 9 output missing SONIC curve")
	}
}

func TestRobustnessStudy(t *testing.T) {
	rows := ComputeRobustness(0)
	if len(rows) != mtj.NumGates {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.SHE < r.ProjSTT {
			t.Errorf("%v: SHE tolerance %.3f below projected STT %.3f", r.Gate, r.SHE, r.ProjSTT)
		}
		if r.ModernSTT <= 0 || r.ProjSTT <= 0 || r.SHE <= 0 {
			t.Errorf("%v: zero tolerance", r.Gate)
		}
	}
	if !strings.Contains(printRows(t, "robustness", rows), "array-level limits") {
		t.Errorf("robustness output incomplete")
	}
}

func TestCheckpointSweepShapes(t *testing.T) {
	rows, err := ComputeCheckpointSweep(mtj.ModernSTT(), "SVM ADULT", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// Backup shrinks and dead grows as checkpoints thin out.
	if !(rows[0].BackupEnergy > rows[1].BackupEnergy && rows[1].BackupEnergy > rows[2].BackupEnergy) {
		t.Errorf("backup energies not decreasing: %g %g %g",
			rows[0].BackupEnergy, rows[1].BackupEnergy, rows[2].BackupEnergy)
	}
	if rows[2].DeadEnergy <= rows[0].DeadEnergy {
		t.Errorf("dead energy did not grow with interval: %g vs %g", rows[2].DeadEnergy, rows[0].DeadEnergy)
	}
	if !strings.Contains(printRows(t, "checkpoint", rows), "interval") {
		t.Errorf("sweep output incomplete")
	}
	if _, err := ComputeCheckpointSweep(mtj.ModernSTT(), "nope", 0, nil); err == nil {
		t.Errorf("unknown benchmark accepted")
	}
}

func TestPrintParallelism(t *testing.T) {
	if !strings.Contains(printRows(t, "parallelism", ComputeParallelism()), "cols") {
		t.Errorf("parallelism output incomplete")
	}
}

// TestFFTComparison checks the Section X related-work shape: the
// intermittent-safe MOUSE FFT beats the non-volatile processor but pays
// a latency penalty against the non-intermittent-safe CRAFFT mapping on
// the same substrate (modern MTJs).
func TestFFTComparison(t *testing.T) {
	rows, err := ComputeFFT(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]FFTRow{}
	for _, r := range rows {
		byName[r.System] = r
	}
	nvp := byName["NVP (THU1010N) [57]"]
	crafft := byName["CRAFFT on CRAM [19]"]
	mouse := byName["MOUSE Modern STT (intermittent-safe)"]
	if mouse.LatencySec == 0 {
		t.Fatalf("missing MOUSE row: %v", rows)
	}
	if mouse.LatencySec >= nvp.LatencySec {
		t.Errorf("MOUSE %.3g s not below the NVP's %.3g s", mouse.LatencySec, nvp.LatencySec)
	}
	if mouse.LatencySec <= crafft.LatencySec {
		t.Errorf("MOUSE %.3g s should pay an intermittent-safety penalty vs CRAFFT's %.3g s", mouse.LatencySec, crafft.LatencySec)
	}
	if !strings.Contains(printRows(t, "fft", rows), "CRAFFT") {
		t.Errorf("FFT output incomplete")
	}
}

// TestSweepStressHighParallelism hammers the sweep engine with far more
// workers than cores over real simulation jobs, so `go test -race`
// exercises the shared paths (workload phase cache, macro-cost cache,
// config singletons) under heavy interleaving.
func TestSweepStressHighParallelism(t *testing.T) {
	powers := []float64{300e-6, 5e-3}
	var rounds [4][]Fig9Point
	for round := range rounds {
		points, err := ComputeFig9(mtj.ProjectedSHE(), powers, 32, nil)
		if err != nil {
			t.Fatal(err)
		}
		rounds[round] = points
	}
	for round := 1; round < len(rounds); round++ {
		if len(rounds[round]) != len(rounds[0]) {
			t.Fatalf("round %d: %d points, want %d", round, len(rounds[round]), len(rounds[0]))
		}
		for i := range rounds[0] {
			if rounds[round][i] != rounds[0][i] {
				t.Errorf("round %d point %d: %+v != %+v", round, i, rounds[round][i], rounds[0][i])
			}
		}
	}
}

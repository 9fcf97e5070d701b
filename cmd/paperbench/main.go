// Command paperbench regenerates the tables and figures of the paper's
// evaluation on the simulated machine and prints measured-vs-paper
// results.
//
// Usage:
//
//	paperbench -experiment all
//	paperbench -experiment table1
//	paperbench -experiment fig3 -csv fig3.csv
//	paperbench -experiment table4 -repeats 3
//	paperbench -experiment table6 -telemetry table6.telemetry.jsonl
//	paperbench -phase-replay run.samples
//
// Experiments: table1 table2 table3 fig1 fig2 fig3 fig4 table4 table5
// table6 table7 coldstart overhead dutycycle ablation-policy
// ablation-mechanism powercap cluster elasticity all.
//
// -phase-replay bypasses the experiments entirely: it decodes a text
// sample stream (one "power bw conc" triple per line, # comments
// allowed) and replays it through the adaptive policy's change-point
// detector, printing every detected phase boundary.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/compiler"
	"repro/internal/experiments"
	"repro/internal/maestro/phase"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "which experiment to run (see command doc)")
		csvPath    = flag.String("csv", "", "also write the result as CSV to this file (tables and figures only)")
		repeats    = flag.Int("repeats", 1, "runs per configuration, keeping the best time (the paper uses 10)")
		seed       = flag.Int64("seed", 42, "workload input seed")
		telePath   = flag.String("telemetry", "", "write a per-run telemetry sidecar (JSONL of metrics + decision journal) to this file")
		replayPath = flag.String("phase-replay", "", "replay a telemetry sample file (lines of 'power bw conc') through the phase detector and print the change points, instead of running experiments")
	)
	flag.Parse()

	if *replayPath != "" {
		if err := replayPhases(*replayPath); err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			os.Exit(1)
		}
		return
	}

	lab := experiments.NewLab()
	lab.Repeats = *repeats
	lab.Seed = *seed

	var sidecar *experiments.SidecarWriter
	if *telePath != "" {
		f, err := os.Create(*telePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		sidecar = experiments.NewSidecarWriter(f)
		lab.Telemetry = sidecar.Record
	}

	if err := run(lab, *experiment, *csvPath); err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(1)
	}
	if sidecar != nil {
		if err := sidecar.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			os.Exit(1)
		}
	}
}

func run(lab *experiments.Lab, experiment, csvPath string) error {
	all := experiment == "all"
	matched := false
	emitCSV := func(result interface{ WriteCSV(w *os.File) error }) error {
		if csvPath == "" || all {
			return nil
		}
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		return result.WriteCSV(f)
	}

	type tableFn func() (experiments.TableResult, error)
	tables := []struct {
		name string
		fn   tableFn
	}{
		{"table1", lab.TableI},
		{"table2", lab.TableII},
		{"table3", lab.TableIII},
	}
	for _, tb := range tables {
		name, fn := tb.name, tb.fn
		if !all && experiment != name {
			continue
		}
		matched = true
		res, err := fn()
		if err != nil {
			return err
		}
		if err := res.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		if err := emitCSV(csvAdapter{table: &res}); err != nil {
			return err
		}
	}

	type figFn func() (experiments.FigureResult, error)
	figures := []struct {
		name string
		fn   figFn
	}{
		{"fig1", lab.Figure1},
		{"fig2", lab.Figure2},
		{"fig3", lab.Figure3},
		{"fig4", lab.Figure4},
	}
	for _, fg := range figures {
		name, fn := fg.name, fg.fn
		if !all && experiment != name {
			continue
		}
		matched = true
		res, err := fn()
		if err != nil {
			return err
		}
		if err := res.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		if err := emitCSV(csvAdapter{fig: &res}); err != nil {
			return err
		}
	}

	throttleTables := []struct {
		name string
		app  string
	}{
		{"table4", compiler.AppLULESH},
		{"table5", compiler.AppDijkstra},
		{"table6", compiler.AppHealth},
		{"table7", compiler.AppStrassen},
	}
	for _, tt := range throttleTables {
		name, app := tt.name, tt.app
		if !all && experiment != name {
			continue
		}
		matched = true
		res, err := lab.ThrottleTable(app)
		if err != nil {
			return err
		}
		if err := res.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}

	if all || experiment == "coldstart" {
		matched = true
		res, err := lab.ColdStart()
		if err != nil {
			return err
		}
		fmt.Printf("Cold start (%s): cold %.0f J / %.1f W vs warm %.0f J / %.1f W — first run saves %.1f%% (paper: 3.2%%)\n\n",
			res.App, res.ColdJoules, res.ColdWatts, res.WarmJoules, res.WarmWatts, res.SavingPct)
	}
	if all || experiment == "overhead" {
		matched = true
		rows, err := lab.ThrottleOverhead()
		if err != nil {
			return err
		}
		fmt.Println("MAESTRO overhead on well-scaling applications (paper: never throttles, <= 0.6%):")
		for _, r := range rows {
			fmt.Printf("  %-24s fixed %6.2fs  dynamic %6.2fs  overhead %5.2f%%  activations %d\n",
				r.App, r.FixedSec, r.DynamicSec, r.OverheadPct, r.Activations)
		}
		fmt.Println()
	}
	if all || experiment == "dutycycle" {
		matched = true
		res, err := lab.DutyCycleSavings()
		if err != nil {
			return err
		}
		fmt.Printf("Duty-cycle savings: 16 active %.1f W vs 12 active + 4 throttled %.1f W — saves %.1f W (paper: >12 W)\n\n",
			float64(res.FullPower), float64(res.ThrottledPower), float64(res.Saving))
	}

	if all || experiment == "ablation-policy" {
		matched = true
		rows, err := lab.PolicyAblation()
		if err != nil {
			return err
		}
		fmt.Println("Policy ablation: dual-condition (paper) vs power-only gating (§IV-A) vs adaptive (phase model):")
		for _, r := range rows {
			fmt.Printf("  %-24s baseline %6.2fs/%6.0fJ  dual %6.2fs/%6.0fJ (%+5.1f%%)  power-only %6.2fs/%6.0fJ (%+5.1f%%)  adaptive %6.2fs/%6.0fJ (%+5.1f%%)\n",
				r.App, r.Baseline.Seconds, r.Baseline.Joules,
				r.Dual.Seconds, r.Dual.Joules, r.DualDeltaE,
				r.PowerOnly.Seconds, r.PowerOnly.Joules, r.PowerDeltaE,
				r.Adaptive.Seconds, r.Adaptive.Joules, r.AdaptiveDeltaE)
		}
		fmt.Println()
	}
	if all || experiment == "ablation-mechanism" {
		matched = true
		rows, err := lab.MechanismAblation()
		if err != nil {
			return err
		}
		fmt.Println("Mechanism ablation: duty-cycle concurrency throttling vs socket-wide DVFS (§IV):")
		for _, r := range rows {
			fmt.Printf("  %-24s (gear %.2f) baseline %6.2fs/%6.0fJ  duty %6.2fs/%6.0fJ  dvfs %6.2fs/%6.0fJ\n",
				r.App, r.Gear, r.Baseline.Seconds, r.Baseline.Joules,
				r.DutyCycle.Seconds, r.DutyCycle.Joules,
				r.DVFS.Seconds, r.DVFS.Joules)
		}
		fmt.Println()
	}
	if all || experiment == "powercap" {
		matched = true
		res, err := lab.PowerCapStudy(120)
		if err != nil {
			return err
		}
		fmt.Printf("Power capping (%s): uncapped %.1f W / %.2f s -> capped@%.0f W %.1f W / %.2f s (tightenings %d, min limit %d)\n\n",
			res.App, res.Uncapped.Watts, res.Uncapped.Seconds, float64(res.Cap),
			res.Capped.Watts, res.Capped.Seconds, res.CapStats.Tightenings, res.CapStats.MinLimit)
	}

	if all || experiment == "cluster" {
		matched = true
		res, err := lab.ClusterCapAblation(experiments.ClusterSpec{HAReplicas: 2})
		if err != nil {
			return err
		}
		if err := res.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}
	if all || experiment == "elasticity" {
		matched = true
		res, err := lab.ElasticityAblation(experiments.ElasticitySpec{})
		if err != nil {
			return err
		}
		if err := res.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}

	if !matched {
		return fmt.Errorf("unknown experiment %q", experiment)
	}
	return nil
}

// replayPhases runs a recorded sample stream through the offline phase
// detector — the same detector the adaptive policy runs live — and
// prints each detected change point with the sample that fired it.
func replayPhases(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	samples, err := phase.DecodeSamples(f)
	if err != nil {
		return err
	}
	marks := phase.Replay(samples)
	fmt.Printf("%s: %d samples, %d change point(s)\n", path, len(samples), len(marks))
	for _, i := range marks {
		s := samples[i]
		fmt.Printf("  sample %6d: power %8.1f W  bw %12.3e B/s  conc %8.1f\n", i, s.Power, s.Bw, s.Conc)
	}
	return nil
}

// csvAdapter lets either result kind satisfy the emitCSV shape.
type csvAdapter struct {
	table *experiments.TableResult
	fig   *experiments.FigureResult
}

func (a csvAdapter) WriteCSV(w *os.File) error {
	if a.table != nil {
		return a.table.WriteCSV(w)
	}
	return a.fig.WriteCSV(w)
}

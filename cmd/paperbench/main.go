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
	"io"
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

// result is what every experiment returns: something that prints itself.
type result interface{ Render(io.Writer) error }

// experiment is one -experiment name and the Lab call that regenerates it.
type experiment struct {
	name string
	run  func() (result, error)
}

// experimentTable lists every experiment in the order "all" runs them;
// the command doc's Experiments list follows it.
func experimentTable(lab *experiments.Lab) []experiment {
	throttle := func(app string) func() (result, error) {
		return func() (result, error) { return lab.ThrottleTable(app) }
	}
	return []experiment{
		{"table1", func() (result, error) { return lab.TableI() }},
		{"table2", func() (result, error) { return lab.TableII() }},
		{"table3", func() (result, error) { return lab.TableIII() }},
		{"fig1", func() (result, error) { return lab.Figure1() }},
		{"fig2", func() (result, error) { return lab.Figure2() }},
		{"fig3", func() (result, error) { return lab.Figure3() }},
		{"fig4", func() (result, error) { return lab.Figure4() }},
		{"table4", throttle(compiler.AppLULESH)},
		{"table5", throttle(compiler.AppDijkstra)},
		{"table6", throttle(compiler.AppHealth)},
		{"table7", throttle(compiler.AppStrassen)},
		{"coldstart", func() (result, error) {
			r, err := lab.ColdStart()
			return printed(fmt.Sprintf("Cold start (%s): cold %.0f J / %.1f W vs warm %.0f J / %.1f W — first run saves %.1f%% (paper: 3.2%%)\n",
				r.App, r.ColdJoules, r.ColdWatts, r.WarmJoules, r.WarmWatts, r.SavingPct)), err
		}},
		{"overhead", func() (result, error) {
			rows, err := lab.ThrottleOverhead()
			out := "MAESTRO overhead on well-scaling applications (paper: never throttles, <= 0.6%):\n"
			for _, r := range rows {
				out += fmt.Sprintf("  %-24s fixed %6.2fs  dynamic %6.2fs  overhead %5.2f%%  activations %d\n",
					r.App, r.FixedSec, r.DynamicSec, r.OverheadPct, r.Activations)
			}
			return printed(out), err
		}},
		{"dutycycle", func() (result, error) {
			r, err := lab.DutyCycleSavings()
			return printed(fmt.Sprintf("Duty-cycle savings: 16 active %.1f W vs 12 active + 4 throttled %.1f W — saves %.1f W (paper: >12 W)\n",
				float64(r.FullPower), float64(r.ThrottledPower), float64(r.Saving))), err
		}},
		{"ablation-policy", func() (result, error) {
			rows, err := lab.PolicyAblation()
			out := "Policy ablation: dual-condition (paper) vs power-only gating (§IV-A) vs adaptive (phase model):\n"
			for _, r := range rows {
				out += fmt.Sprintf("  %-24s baseline %6.2fs/%6.0fJ  dual %6.2fs/%6.0fJ (%+5.1f%%)  power-only %6.2fs/%6.0fJ (%+5.1f%%)  adaptive %6.2fs/%6.0fJ (%+5.1f%%)\n",
					r.App, r.Baseline.Seconds, r.Baseline.Joules,
					r.Dual.Seconds, r.Dual.Joules, r.DualDeltaE,
					r.PowerOnly.Seconds, r.PowerOnly.Joules, r.PowerDeltaE,
					r.Adaptive.Seconds, r.Adaptive.Joules, r.AdaptiveDeltaE)
			}
			return printed(out), err
		}},
		{"ablation-mechanism", func() (result, error) {
			rows, err := lab.MechanismAblation()
			out := "Mechanism ablation: duty-cycle concurrency throttling vs socket-wide DVFS (§IV):\n"
			for _, r := range rows {
				out += fmt.Sprintf("  %-24s (gear %.2f) baseline %6.2fs/%6.0fJ  duty %6.2fs/%6.0fJ  dvfs %6.2fs/%6.0fJ\n",
					r.App, r.Gear, r.Baseline.Seconds, r.Baseline.Joules,
					r.DutyCycle.Seconds, r.DutyCycle.Joules,
					r.DVFS.Seconds, r.DVFS.Joules)
			}
			return printed(out), err
		}},
		{"powercap", func() (result, error) {
			r, err := lab.PowerCapStudy(120)
			return printed(fmt.Sprintf("Power capping (%s): uncapped %.1f W / %.2f s -> capped@%.0f W %.1f W / %.2f s (tightenings %d, min limit %d)\n",
				r.App, r.Uncapped.Watts, r.Uncapped.Seconds, float64(r.Cap),
				r.Capped.Watts, r.Capped.Seconds, r.Capped.Daemon.Tightenings, r.Capped.Daemon.MinLimit)), err
		}},
		{"cluster", func() (result, error) { return lab.ClusterCapAblation(experiments.ClusterSpec{HAReplicas: 2}) }},
		{"elasticity", func() (result, error) { return lab.ElasticityAblation(experiments.ElasticitySpec{}) }},
	}
}

// printed is an experiment result already formatted as text.
type printed string

func (p printed) Render(w io.Writer) error {
	_, err := io.WriteString(w, string(p))
	return err
}

// run regenerates the named experiment, or every one for "all", printing
// each result followed by a blank line. A single table or figure is also
// written as CSV when csvPath is set.
func run(lab *experiments.Lab, experiment, csvPath string) error {
	matched := false
	for _, e := range experimentTable(lab) {
		if experiment != "all" && experiment != e.name {
			continue
		}
		matched = true
		res, err := e.run()
		if err != nil {
			return err
		}
		if err := res.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		if c, ok := res.(interface{ WriteCSV(io.Writer) error }); ok && csvPath != "" && experiment != "all" {
			if err := writeCSV(csvPath, c.WriteCSV); err != nil {
				return err
			}
		}
	}
	if !matched {
		return fmt.Errorf("unknown experiment %q", experiment)
	}
	return nil
}

func writeCSV(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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

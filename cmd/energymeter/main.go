// Command energymeter runs one benchmark of the paper's suite on the
// simulated machine under the task runtime, bracketed in an RCR
// measurement region, and prints the region report — elapsed time,
// Joules, average Watts and per-socket temperatures — like the
// RCRdaemon's region API (paper §II-B).
//
// Usage:
//
//	energymeter -app lulesh
//	energymeter -app dijkstra -compiler icc -opt 3 -threads 8
//	energymeter -app bots-strassen-cutoff -throttle
//	energymeter -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/qthreads"
	"repro/internal/workloads"
	"repro/internal/workloads/suite"
)

func main() {
	var (
		app      = flag.String("app", "lulesh", "benchmark to run (-list to enumerate)")
		comp     = flag.String("compiler", "gcc", "modeled compiler: gcc or icc")
		opt      = flag.Int("opt", 2, "modeled optimization level 0-3")
		threads  = flag.Int("threads", 16, "worker threads")
		scale    = flag.Float64("scale", 1, "input scale relative to the paper's")
		throttle = flag.Bool("throttle", false, "enable MAESTRO adaptive concurrency throttling")
		spin     = flag.Bool("spin", false, "spin-only idle policy (Qthreads/MAESTRO behaviour)")
		list     = flag.Bool("list", false, "list available benchmarks and exit")
		traceCSV = flag.String("trace", "", "write the scheduler event trace as CSV to this file")
		histCSV  = flag.String("history", "", "write the power/concurrency timeline as CSV to this file")
	)
	flag.Parse()

	if *list {
		for _, n := range suite.Names() {
			fmt.Println(n)
		}
		return
	}
	if err := run(*app, *comp, *opt, *threads, *scale, *throttle, *spin, *traceCSV, *histCSV); err != nil {
		fmt.Fprintln(os.Stderr, "energymeter:", err)
		os.Exit(1)
	}
}

func run(app, comp string, opt, threads int, scale float64, throttle, spin bool, traceCSV, histCSV string) error {
	target := compiler.Target{Opt: compiler.OptLevel(opt) + compiler.O0}
	switch comp {
	case "gcc":
		target.Compiler = compiler.GCC
	case "icc":
		target.Compiler = compiler.ICC
	default:
		return fmt.Errorf("unknown compiler %q (gcc or icc)", comp)
	}
	if opt < 0 || opt > 3 {
		return fmt.Errorf("optimization level %d out of range 0-3", opt)
	}

	wl, err := suite.New(app)
	if err != nil {
		return err
	}
	// The zero machine configuration is the M620 to Prepare and core.New alike.
	if err := wl.Prepare(workloads.Params{Target: target, Scale: scale}); err != nil {
		return err
	}

	qcfg := qthreads.Config{SpinOnlyIdle: spin || throttle}
	var rec *qthreads.Recorder
	if traceCSV != "" {
		rec = qthreads.NewRecorder(0)
		qcfg.Tracer = rec
	}
	sys, err := core.New(core.Options{
		Workers:            threads,
		Qthreads:           qcfg,
		AdaptiveThrottling: throttle,
		RecordHistory:      histCSV != "",
		Warm:               true,
	})
	if err != nil {
		return err
	}
	defer sys.Close()

	fmt.Printf("running %s (%v, %d threads, scale %g) on the simulated M620...\n", app, target, threads, scale)
	rep, err := sys.RunWorkload(wl)
	if err != nil {
		return err
	}
	fmt.Println(rep)
	if paper, ok := compiler.PaperEntry(app, target); ok && threads == 16 && scale == 1 {
		fmt.Printf("paper (16 threads): %.1f s, %.0f J, %.1f W\n", paper.Seconds, paper.Joules, paper.Watts)
	}
	if stats, ok := sys.Throttling(); ok {
		fmt.Printf("maestro: %d samples, %d activations, %d deactivations, throttled %.2f s\n",
			stats.Samples, stats.Activations, stats.Deactivations, stats.ThrottledTime.Seconds())
	}
	if rec != nil {
		if err := writeCSVFile(traceCSV, rec.WriteCSV); err != nil {
			return err
		}
		fmt.Printf("scheduler trace (%d events) written to %s\n", len(rec.Events()), traceCSV)
	}
	if histCSV != "" {
		if err := writeCSVFile(histCSV, sys.History().WriteCSV); err != nil {
			return err
		}
		fmt.Printf("power timeline (%d samples) written to %s\n", sys.History().Len(), histCSV)
	}
	return nil
}

// writeCSVFile creates path and streams a CSV writer into it.
func writeCSVFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return write(f)
}

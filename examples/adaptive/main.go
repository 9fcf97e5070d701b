// Adaptive throttling on LULESH, Table IV style: run the hydrodynamics
// mini-app under three configurations — 16 fixed workers, 12 fixed
// workers, and 16 workers with the MAESTRO daemon deciding dynamically —
// and compare time, energy and power.
//
//	go run ./examples/adaptive
package main

import (
	"fmt"
	"log"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/qthreads"
	"repro/internal/workloads"
	"repro/internal/workloads/lulesh"
)

func main() {
	type config struct {
		name     string
		workers  int
		throttle bool
	}
	configs := []config{
		{"16 threads, dynamic throttling", 16, true},
		{"16 threads, fixed", 16, false},
		{"12 threads, fixed", 12, false},
	}
	target := compiler.Target{Compiler: compiler.GCC, Opt: compiler.O3}

	fmt.Println("LULESH under the MAESTRO runtime (cf. paper Table IV):")
	for _, c := range configs {
		wl := lulesh.New()
		if err := wl.Prepare(workloads.Params{Target: target}); err != nil {
			log.Fatal(err)
		}
		sys, err := core.New(core.Options{
			Workers:            c.workers,
			Qthreads:           qthreads.Config{SpinOnlyIdle: true}, // the paper's runtime spins rather than parks
			AdaptiveThrottling: c.throttle,
			Warm:               true,
		})
		if err != nil {
			log.Fatal(err)
		}
		rep, err := sys.RunWorkload(wl)
		if err != nil {
			sys.Close()
			log.Fatal(err)
		}
		fmt.Printf("  %-32s %6.1f s  %7.0f J  %6.1f W", c.name,
			rep.Elapsed.Seconds(), float64(rep.Energy), float64(rep.AvgPower))
		if stats, ok := sys.Throttling(); ok {
			fmt.Printf("  (throttled %.1f s across %d activations)",
				stats.ThrottledTime.Seconds(), stats.Activations)
		}
		fmt.Println()
		sys.Close()
	}
	fmt.Println("\npaper Table IV:            dynamic 48.4 s / 6860 J / 141.7 W")
	fmt.Println("                           fixed16 45.5 s / 7089 J / 155.9 W")
	fmt.Println("                           fixed12 48.2 s / 6341 J / 131.5 W")
}

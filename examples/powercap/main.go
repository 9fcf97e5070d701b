// Power capping: run a sustained high-power kernel under a node power
// budget, with concurrency throttling as the actuator (the paper's §V/§VI
// outlook), and dump the power timeline as CSV for plotting.
//
//	go run ./examples/powercap
//	go run ./examples/powercap -cap 110 -csv timeline.csv
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/maestro"
	"repro/internal/qthreads"
	"repro/internal/units"
)

func main() {
	capW := flag.Float64("cap", 120, "node power cap in watts (0 disables)")
	csvPath := flag.String("csv", "", "write the power timeline as CSV to this file")
	flag.Parse()

	sys, err := core.New(core.Options{
		Warm:               true,
		AdaptiveThrottling: *capW > 0,
		Maestro:            maestro.Config{Policy: maestro.PowerCapped, Cap: units.Watts(*capW)},
		RecordHistory:      true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	// A sustained compute burn that would draw ~150 W uncapped.
	report, err := sys.Run("capped-burn", func(tc *qthreads.TC) {
		g := tc.NewGroup()
		for i := 0; i < 4800; i++ {
			g.Spawn(tc, func(tc *qthreads.TC) { tc.Compute(2e7) })
		}
		g.Wait(tc)
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(report)
	if stats, ok := sys.Throttling(); ok {
		fmt.Printf("cap %.0f W: %d tightenings, %d relaxations, tightest limit %d workers/socket, %d/%d samples over budget\n",
			*capW, stats.Tightenings, stats.Relaxations, stats.MinLimit, stats.OverBudget, stats.Samples)
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := sys.History().WriteCSV(f); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("power timeline (%d samples) written to %s\n", sys.History().Len(), *csvPath)
	} else {
		pts := sys.History().Points()
		fmt.Printf("timeline: %d samples; first %.1f W, last %.1f W\n",
			len(pts), pts[0].NodePower, pts[len(pts)-1].NodePower)
	}
}

package cluster

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/resilience/leak"
	"repro/internal/telemetry"
	"repro/internal/workloads"
	"repro/internal/workloads/suite"
)

// TestFleetClosedLoop stands up two real full-stack shards — one
// memory-bound (lulesh), one compute-bound (nqueens) — under a live
// aggregator with a binding global budget, and checks the loop end to
// end: shard heartbeats reach the aggregator through the real wire,
// both shards are judged healthy while their workloads run, the
// partition skews watts toward the compute-bound shard's headroom, and
// the pushed caps land in each node's own PowerCap controller.
func TestFleetClosedLoop(t *testing.T) {
	leak.Check(t)
	fleet, err := NewFleet(FleetConfig{Shards: 2, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	reg := telemetry.NewRegistry()
	t0 := time.Now()
	agg, err := NewAggregator(AggregatorConfig{
		Shards:        fleet.Endpoints(),
		Global:        120, // binding: well under two uncapped nodes
		Floor:         10,
		Max:           300,
		Period:        5 * time.Millisecond,
		HealthHorizon: 300 * time.Millisecond, // rides out Prepare gaps between loop iterations
		Clock:         func() time.Duration { return time.Since(t0) },
		SetCap:        fleet.SetCap,
		Telemetry:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	aggDone := make(chan error, 1)
	go func() { aggDone <- agg.Run(ctx) }()

	// Loop each shard's workload until told to stop: shard 0 lulesh,
	// shard 1 nqueens — the paper's canonical memory-bound/compute-bound
	// pair.
	apps := []string{"lulesh", "nqueens"}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	runErr := make([]error, len(fleet.shards))
	for i := 0; i < len(fleet.shards); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				wl, err := suite.New(apps[i])
				if err == nil {
					err = wl.Prepare(workloads.Params{
						MachineConfig: fleet.System(i).Machine().Config(),
						Scale:         0.5,
					})
				}
				if err == nil {
					_, err = fleet.System(i).RunWorkload(wl)
				}
				if err != nil {
					runErr[i] = err
					return
				}
			}
		}(i)
	}

	// Wait for the loop to close: both shards healthy and a skewed
	// partition pushed into the real cap controllers.
	deadline := time.Now().Add(10 * time.Second)
	var st AggregatorStatus
	for time.Now().Before(deadline) {
		st = agg.Status()
		if st.Healthy == 2 && st.Caps[1] > st.Caps[0] && st.Caps[0] > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	cancel()
	<-aggDone
	for i, err := range runErr {
		if err != nil {
			t.Fatalf("shard %d workload: %v", i, err)
		}
	}
	if st.Healthy != 2 {
		t.Fatalf("shards never both healthy: %+v", st)
	}
	if st.Caps[1] <= st.Caps[0] {
		t.Errorf("compute-bound shard got %.1f W ≤ memory-bound %.1f W: partition ignored real headroom",
			float64(st.Caps[1]), float64(st.Caps[0]))
	}
	if float64(st.CapsSum) > 120+sumEps {
		t.Errorf("Σcaps %.3f exceeds the 120 W budget", float64(st.CapsSum))
	}
	// The pushed shares really landed in each node's cap controller:
	// with the aggregator stopped, its applied bookkeeping and the
	// controllers must agree exactly. (The mid-run snapshot st cannot be
	// compared — the aggregator kept repartitioning after it was taken.)
	final := agg.Status()
	for i := 0; i < len(fleet.shards); i++ {
		if got := fleet.System(i).PowerCapController().Cap(); got != final.Caps[i] {
			t.Errorf("shard %d PowerCap holds %.1f W, aggregator applied %.1f W",
				i, float64(got), float64(final.Caps[i]))
		}
	}
	t.Logf("caps: lulesh %.1f W, nqueens %.1f W (Σ %.1f of 120 W)",
		float64(st.Caps[0]), float64(st.Caps[1]), float64(st.CapsSum))
}

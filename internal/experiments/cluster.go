package experiments

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/internal/workloads"
	"repro/internal/workloads/suite"
)

// Cluster-scale ablation (paper §VI outlook): N full-stack nodes under
// one global power budget, comparing the naive policy — split the
// budget equally and walk away — against the hierarchical controller in
// internal/cluster, which re-partitions the budget toward the shards
// with scaling headroom. On a skewed mix (memory-bound lulesh next to
// compute-bound nqueens) the equal split is exactly wrong both ways: it
// starves the compute-bound shards that could turn watts into speed,
// and over-provisions the memory-bound shards that the paper shows can
// be throttled almost for free.

// The per-shard cap bounds both aggregator arms partition within.
const (
	clusterCapFloor units.Watts = 10
	clusterCapMax   units.Watts = 300
)

// ClusterSpec sizes the cluster ablation.
type ClusterSpec struct {
	// Shards is the node count; zero selects 4.
	Shards int
	// Apps is the workload mix, cycled across shards; empty selects the
	// skewed lulesh/nqueens alternation.
	Apps []string
	// Global is the fleet-wide power budget; zero selects 50 W per
	// shard. That equal share is binding for the compute-bound shards
	// and roughly double what the memory-bound shards can usefully burn
	// — the regime where moving watts matters. (Much tighter budgets
	// converge the two policies: when even the floor assignments bind
	// everyone, there is nothing left to move.)
	Global units.Watts
	// Iters is how many times each shard runs its workload; zero
	// selects 2.
	Iters int
	// Workers is each node's worker count; zero selects 8 (half the
	// M620, keeping the 4-node fleet affordable to simulate).
	Workers int
	// HAReplicas, when ≥ 2, adds a third arm: the same hierarchical
	// controller behind that many redundant aggregators (the HA control
	// plane in internal/cluster, writing over the fenced wire path) with
	// the elected leader killed mid-run — so the result quantifies the
	// hand-off cost in joules against the single-aggregator arm. Zero
	// skips the arm.
	HAReplicas int
}

// ClusterMeasurement is one policy arm's outcome.
type ClusterMeasurement struct {
	Policy       string
	ShardJoules  []float64
	ShardSeconds []float64 // per-shard busy time (virtual), summed over iterations
	TotalJoules  float64
	MakespanSec  float64 // max shard busy time
	Repartitions uint64  // cap re-partitions applied (0 for the naive arm)
	Elections    uint64  // leader elections (HA arm only)
	LeaderKills  uint64  // injected leader kills (HA arm only)
	FinalCaps    []units.Watts
}

// ClusterResult is the two-arm comparison.
type ClusterResult struct {
	Shards       int
	Apps         []string // the mix actually run, shard by shard
	Global       units.Watts
	Naive        ClusterMeasurement
	Hierarchical ClusterMeasurement
	// HA is the redundant-control-plane arm, present when
	// ClusterSpec.HAReplicas ≥ 2: the hierarchical policy run behind N
	// aggregator replicas with one leader kill and fenced hand-off
	// mid-run.
	HA *ClusterMeasurement
	// EnergyDeltaPct is the hierarchical arm's total-energy change vs
	// naive, in percent (negative = saved energy).
	EnergyDeltaPct float64
	// MakespanDeltaPct likewise for the fleet makespan.
	MakespanDeltaPct float64
	// HAEnergyDeltaPct / HAMakespanDeltaPct compare the HA arm to the
	// single-aggregator hierarchical arm: the measured price of running
	// redundant and paying one fenced hand-off.
	HAEnergyDeltaPct   float64
	HAMakespanDeltaPct float64
}

// ClusterCapAblation runs both arms on fresh fleets and compares them.
func (lab *Lab) ClusterCapAblation(spec ClusterSpec) (ClusterResult, error) {
	if spec.Shards <= 0 {
		spec.Shards = 4
	}
	if len(spec.Apps) == 0 {
		spec.Apps = []string{"lulesh", "nqueens"}
	}
	if spec.Global <= 0 {
		spec.Global = units.Watts(50 * float64(spec.Shards))
	}
	if spec.Iters <= 0 {
		spec.Iters = 2
	}
	if spec.Workers <= 0 {
		spec.Workers = 8
	}
	apps := make([]string, spec.Shards)
	for i := range apps {
		apps[i] = spec.Apps[i%len(spec.Apps)]
	}
	res := ClusterResult{Shards: spec.Shards, Apps: apps, Global: spec.Global}
	var err error
	if res.Naive, err = lab.runClusterArm(spec, apps, false); err != nil {
		return ClusterResult{}, fmt.Errorf("experiments: naive arm: %w", err)
	}
	if res.Hierarchical, err = lab.runClusterArm(spec, apps, true); err != nil {
		return ClusterResult{}, fmt.Errorf("experiments: hierarchical arm: %w", err)
	}
	res.EnergyDeltaPct = (res.Hierarchical.TotalJoules - res.Naive.TotalJoules) / res.Naive.TotalJoules * 100
	res.MakespanDeltaPct = (res.Hierarchical.MakespanSec - res.Naive.MakespanSec) / res.Naive.MakespanSec * 100
	if spec.HAReplicas >= 2 {
		ha, err := lab.runClusterHAArm(spec, apps)
		if err != nil {
			return ClusterResult{}, fmt.Errorf("experiments: ha arm: %w", err)
		}
		res.HA = &ha
		res.HAEnergyDeltaPct = (ha.TotalJoules - res.Hierarchical.TotalJoules) / res.Hierarchical.TotalJoules * 100
		res.HAMakespanDeltaPct = (ha.MakespanSec - res.Hierarchical.MakespanSec) / res.Hierarchical.MakespanSec * 100
	}
	return res, nil
}

// runClusterHAArm is the redundant-control-plane arm: the hierarchical
// policy behind spec.HAReplicas aggregators over the fleet's real
// fenced wire path (Fleet.WriteCap → CAP op → FenceGuard → node
// controller). Once the elected leader has the whole fleet capped and
// its reign has settled, it is killed; the surviving standbys elect a
// successor that replays the committed assignment and carries on. The
// arm's energy against the single-aggregator arm is the measured
// hand-off cost.
func (lab *Lab) runClusterHAArm(spec ClusterSpec, apps []string) (ClusterMeasurement, error) {
	meas := ClusterMeasurement{
		Policy:       fmt.Sprintf("ha-%d-replicas", spec.HAReplicas),
		ShardJoules:  make([]float64, spec.Shards),
		ShardSeconds: make([]float64, spec.Shards),
		FinalCaps:    make([]units.Watts, spec.Shards),
	}
	fleet, err := cluster.NewFleet(cluster.FleetConfig{
		Shards:  spec.Shards,
		Machine: lab.Machine,
		Workers: spec.Workers,
	})
	if err != nil {
		return ClusterMeasurement{}, err
	}
	defer fleet.Close()

	reg := telemetry.NewRegistry()
	t0 := time.Now()
	type haReplica struct {
		agg    *cluster.Aggregator
		cancel context.CancelFunc
		done   chan error
	}
	var repMu sync.Mutex
	reps := make([]*haReplica, spec.HAReplicas)
	stopReplica := func(r *haReplica) {
		r.cancel()
		<-r.done
	}
	for i := range reps {
		agg, err := cluster.NewAggregator(cluster.AggregatorConfig{
			Shards: fleet.Endpoints(),
			Global: spec.Global,
			Floor:  clusterCapFloor,
			Max:    clusterCapMax,
			Period: 20 * time.Millisecond,
			// Generous for the same reason as the single-aggregator arm:
			// a false "lost" verdict would corrupt the measurement.
			HealthHorizon: 2 * time.Second,
			Clock:         func() time.Duration { return time.Since(t0) },
			Telemetry:     reg, // shared: counters aggregate across replicas
			HA: &cluster.HAConfig{
				ID: uint32(i + 1),
				// Sized against the fenced write path's tail under two
				// full-stack workloads (see the fleet HA kill test) — a
				// socket dial on a leader's first write to a shard, one
				// kept-alive round trip after that: a lease that outruns
				// the tail keeps the pre-kill reign stable, at the price
				// of a longer measured hand-off.
				LeaseTTL:   1500 * time.Millisecond,
				Grace:      400 * time.Millisecond,
				JitterSeed: uint64(lab.Seed) ^ uint64(i+1)<<32,
				WriteCap:   fleet.WriteCap,
			},
		})
		if err != nil {
			repMu.Lock()
			for j := 0; j < i; j++ {
				stopReplica(reps[j])
			}
			repMu.Unlock()
			return ClusterMeasurement{}, err
		}
		ctx, cancel := context.WithCancel(context.Background())
		r := &haReplica{agg: agg, cancel: cancel, done: make(chan error, 1)}
		go func() { r.done <- agg.Run(ctx) }()
		reps[i] = r
	}
	defer func() {
		repMu.Lock()
		defer repMu.Unlock()
		for _, r := range reps {
			if r != nil {
				stopReplica(r)
			}
		}
	}()

	// The killer: wait for a leader with the whole fleet capped, let the
	// reign settle, then kill it mid-run.
	workDone := make(chan struct{})
	killDone := make(chan struct{})
	go func() {
		defer close(killDone)
		for {
			select {
			case <-workDone:
				return
			default:
			}
			victim := -1
			repMu.Lock()
			for i, r := range reps {
				if r == nil {
					continue
				}
				st := r.agg.Status()
				ruling := st.Leader && st.LastChange > 0 && len(st.Caps) == spec.Shards
				for _, c := range st.Caps {
					if c <= 0 {
						ruling = false
					}
				}
				if ruling {
					victim = i
				}
			}
			repMu.Unlock()
			if victim < 0 {
				time.Sleep(20 * time.Millisecond)
				continue
			}
			time.Sleep(200 * time.Millisecond)
			repMu.Lock()
			r := reps[victim]
			reps[victim] = nil
			repMu.Unlock()
			stopReplica(r)
			meas.LeaderKills++ // joined via killDone before anyone reads it
			return
		}
	}()

	var wg sync.WaitGroup
	errs := make([]error, spec.Shards)
	for i := 0; i < spec.Shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < spec.Iters; r++ {
				wl, err := suite.New(apps[i])
				if err == nil {
					err = wl.Prepare(workloads.Params{
						MachineConfig: fleet.System(i).Machine().Config(),
						Seed:          lab.Seed + int64(r),
					})
				}
				if err != nil {
					errs[i] = err
					return
				}
				rep, err := fleet.System(i).RunWorkload(wl)
				if err != nil {
					errs[i] = err
					return
				}
				meas.ShardJoules[i] += float64(rep.Energy)
				meas.ShardSeconds[i] += rep.Elapsed.Seconds()
			}
		}(i)
	}
	wg.Wait()
	close(workDone)
	<-killDone
	for i, err := range errs {
		if err != nil {
			return ClusterMeasurement{}, fmt.Errorf("shard %d (%s): %w", i, apps[i], err)
		}
	}
	// The energy numbers are fixed once the workloads stop; give the
	// survivors a bounded window to finish the takeover so the election
	// counters always record the hand-off this arm exists to measure.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		elected := false
		repMu.Lock()
		for _, r := range reps {
			if r != nil && r.agg.Status().Leader {
				elected = true
			}
		}
		repMu.Unlock()
		if elected {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	meas.Repartitions = reg.Counter("cluster_repartitions_total").Value()
	meas.Elections = reg.Counter("cluster_leader_elections_total").Value()
	for i := 0; i < spec.Shards; i++ {
		meas.FinalCaps[i] = fleet.System(i).PowerCapController().Cap()
		meas.TotalJoules += meas.ShardJoules[i]
		if meas.ShardSeconds[i] > meas.MakespanSec {
			meas.MakespanSec = meas.ShardSeconds[i]
		}
	}
	return meas, nil
}

// runClusterArm stands up one fleet, applies the policy, runs the mix
// and tears everything down.
func (lab *Lab) runClusterArm(spec ClusterSpec, apps []string, hierarchical bool) (ClusterMeasurement, error) {
	meas := ClusterMeasurement{
		Policy:       "naive-equal-split",
		ShardJoules:  make([]float64, spec.Shards),
		ShardSeconds: make([]float64, spec.Shards),
		FinalCaps:    make([]units.Watts, spec.Shards),
	}
	if hierarchical {
		meas.Policy = "hierarchical"
	}
	fleet, err := cluster.NewFleet(cluster.FleetConfig{
		Shards:  spec.Shards,
		Machine: lab.Machine,
		Workers: spec.Workers,
	})
	if err != nil {
		return ClusterMeasurement{}, err
	}
	defer fleet.Close()

	var (
		reg     *telemetry.Registry
		cancel  context.CancelFunc
		aggDone chan error
		agg     *cluster.Aggregator
	)
	if hierarchical {
		reg = telemetry.NewRegistry()
		t0 := time.Now()
		agg, err = cluster.NewAggregator(cluster.AggregatorConfig{
			Shards: fleet.Endpoints(),
			Global: spec.Global,
			Floor:  clusterCapFloor,
			Max:    clusterCapMax,
			Period: 5 * time.Millisecond,
			// No shard dies in this experiment, so the horizon only needs
			// to keep healthy shards healthy. It is deliberately generous:
			// shard heartbeats stall during host-side workload Prepare, and
			// on a loaded 1-CPU host those gaps can stretch well past the
			// 300 ms a live deployment would use. A false "lost" verdict
			// here would pin a shard to the floor and corrupt the ablation.
			HealthHorizon: 2 * time.Second,
			Clock:         func() time.Duration { return time.Since(t0) },
			SetCap:        fleet.SetCap,
			Telemetry:     reg,
		})
		if err != nil {
			return ClusterMeasurement{}, err
		}
		var ctx context.Context
		ctx, cancel = context.WithCancel(context.Background())
		aggDone = make(chan error, 1)
		go func() { aggDone <- agg.Run(ctx) }()
		defer func() {
			if cancel != nil {
				cancel()
				<-aggDone
			}
		}()
	} else {
		// The whole policy: an equal share each, assigned once.
		share := units.Watts(float64(spec.Global) / float64(spec.Shards))
		for i := 0; i < spec.Shards; i++ {
			if err := fleet.SetCap(i, share); err != nil {
				return ClusterMeasurement{}, err
			}
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, spec.Shards)
	for i := 0; i < spec.Shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < spec.Iters; r++ {
				wl, err := suite.New(apps[i])
				if err == nil {
					err = wl.Prepare(workloads.Params{
						MachineConfig: fleet.System(i).Machine().Config(),
						Seed:          lab.Seed + int64(r),
					})
				}
				if err != nil {
					errs[i] = err
					return
				}
				rep, err := fleet.System(i).RunWorkload(wl)
				if err != nil {
					errs[i] = err
					return
				}
				meas.ShardJoules[i] += float64(rep.Energy)
				meas.ShardSeconds[i] += rep.Elapsed.Seconds()
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return ClusterMeasurement{}, fmt.Errorf("shard %d (%s): %w", i, apps[i], err)
		}
	}
	if hierarchical {
		cancel()
		<-aggDone
		cancel = nil
		meas.Repartitions = reg.Counter("cluster_repartitions_total").Value()
	}
	for i := 0; i < spec.Shards; i++ {
		meas.FinalCaps[i] = fleet.System(i).PowerCapController().Cap()
		meas.TotalJoules += meas.ShardJoules[i]
		if meas.ShardSeconds[i] > meas.MakespanSec {
			meas.MakespanSec = meas.ShardSeconds[i]
		}
	}
	return meas, nil
}

// Render writes the two-arm comparison as an aligned text table.
func (r ClusterResult) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Global power cap ablation: %d shards, %.0f W budget (mix:", r.Shards, float64(r.Global)); err != nil {
		return err
	}
	for _, a := range r.Apps {
		if _, err := fmt.Fprintf(w, " %s", a); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w, ")"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-20s %12s %12s %14s\n", "policy", "energy (J)", "makespan (s)", "repartitions"); err != nil {
		return err
	}
	arms := []ClusterMeasurement{r.Naive, r.Hierarchical}
	if r.HA != nil {
		arms = append(arms, *r.HA)
	}
	for _, m := range arms {
		if _, err := fmt.Fprintf(w, "%-20s %12.1f %12.3f %14d\n", m.Policy, m.TotalJoules, m.MakespanSec, m.Repartitions); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "hierarchical vs naive: energy %+.1f%%, makespan %+.1f%%\n", r.EnergyDeltaPct, r.MakespanDeltaPct); err != nil {
		return err
	}
	if r.HA != nil {
		if _, err := fmt.Fprintf(w, "ha hand-off cost vs single aggregator: energy %+.1f%%, makespan %+.1f%% (%d elections, %d leader kill(s))\n",
			r.HAEnergyDeltaPct, r.HAMakespanDeltaPct, r.HA.Elections, r.HA.LeaderKills); err != nil {
			return err
		}
	}
	return nil
}

package experiments

import (
	"fmt"
	"io"
	"slices"
	"strings"
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

// All arms run on a cluster.LockstepFleet: every node and the control
// plane share one virtual clock, so an arm is a pure function of the spec
// and the Lab seed (docs/cluster.md §Lockstep fleet).

const (
	// The per-shard cap bounds both aggregator arms partition within.
	clusterCapFloor units.Watts = 10
	clusterCapMax   units.Watts = 300
	// clusterPollPeriod is the control plane's poll period and the
	// fleet's barrier — the aggregator's default cadence.
	clusterPollPeriod = 50 * time.Millisecond
	// clusterLeasePeriods is the HA arm's lease TTL in poll periods.
	// Guard offers are in-process, so as in the scenario runner the TTL
	// need not absorb a socket write's tail.
	clusterLeasePeriods = 8
	// clusterReign is how long the HA arm's first leader rules the whole
	// fleet before it is killed: long enough for its partition to have
	// settled, early enough that most of the run is the successor's.
	clusterReign = 20 * time.Second
)

// ClusterSpec sizes the cluster ablation.
type ClusterSpec struct {
	// Shards is the node count; zero selects 4.
	Shards int
	// Apps is the workload mix, cycled across shards; empty selects the
	// skewed lulesh/nqueens alternation.
	Apps []string
	// Global is the fleet-wide power budget; zero selects 50 W per
	// shard. That equal share is below the 55 W an idle node draws, so
	// it binds every shard all the time: each node's controller sits at
	// its tightest throttle in both arms, and what the hierarchical arm
	// moves between shards changes little (EXPERIMENTS.md divergence 3
	// has the numbers, and those of budgets a node can actually meet,
	// where the headroom policy loses).
	Global units.Watts
	// Iters is how many times each shard runs its workload; zero
	// selects 2.
	Iters int
	// Workers is each node's worker count; zero selects 8 (half the
	// M620, keeping the 4-node fleet affordable to simulate).
	Workers int
	// HAReplicas, when ≥ 2, adds a third arm: the same hierarchical
	// controller behind that many redundant aggregators (the HA control
	// plane in internal/cluster, writing through the nodes' fence
	// guards) with the elected leader killed mid-run — so the result
	// quantifies the hand-off cost in joules against the
	// single-aggregator arm. Zero skips the arm.
	HAReplicas int
}

// ClusterMeasurement is one policy arm's outcome.
type ClusterMeasurement struct {
	Policy       string
	ShardJoules  []float64
	ShardSeconds []float64 // per-shard busy time (virtual), summed over iterations
	TotalJoules  float64
	MakespanSec  float64 // max shard busy time
	Polls        uint64  // control-plane polls, all replicas (0 for the naive arm)
	Repartitions uint64  // cap re-partitions applied (0 for the naive arm)
	Elections    uint64  // leader elections (HA arm only)
	LeaderKills  uint64  // injected leader kills (HA arm only)
	// HandoffMs is the leader kill → first cap under a higher fence, in
	// virtual milliseconds (HA arm only; 0 if no successor ever wrote).
	HandoffMs float64
	// ApplyViolations counts cap applies that broke an invariant at the
	// fleet's audited seam — Σ applied caps over the budget, a fence
	// regressing, two fences actuating at once — plus, for the single
	// aggregator, its own conservation self-check. Must be 0.
	ApplyViolations uint64
	FinalCaps       []units.Watts
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

// ClusterCapAblation runs each arm on a fresh fleet and compares them.
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
	// An arm is its control plane's size: none (the naive split), one
	// unfenced aggregator, or HAReplicas fenced ones.
	planes := []int{0, 1}
	if spec.HAReplicas >= 2 {
		planes = append(planes, spec.HAReplicas)
	}
	out := make([]ClusterMeasurement, len(planes))
	if err := lab.runCells(len(planes), func(i int) (err error) {
		out[i], err = lab.runClusterArm(spec, apps, planes[i])
		return err
	}); err != nil {
		return ClusterResult{}, err
	}
	res := ClusterResult{Shards: spec.Shards, Apps: apps, Global: spec.Global, Naive: out[0], Hierarchical: out[1]}
	pct := func(arm, base float64) float64 { return (arm - base) / base * 100 }
	res.EnergyDeltaPct = pct(res.Hierarchical.TotalJoules, res.Naive.TotalJoules)
	res.MakespanDeltaPct = pct(res.Hierarchical.MakespanSec, res.Naive.MakespanSec)
	if len(out) > 2 {
		res.HA = &out[2]
		res.HAEnergyDeltaPct = pct(res.HA.TotalJoules, res.Hierarchical.TotalJoules)
		res.HAMakespanDeltaPct = pct(res.HA.MakespanSec, res.Hierarchical.MakespanSec)
	}
	return res, nil
}

// runClusterArm stands up one lockstep fleet under a control plane of
// the given size, runs the mix to completion and tears everything down.
// With no replica the policy is the naive one — an equal share each,
// assigned once. One replica is the hierarchical controller writing caps
// unfenced. Two or more are the HA plane: the replicas are polled in ID
// order at every boundary, write through the nodes' fence guards, and
// the first leader to have the whole fleet capped is dropped from the
// poll list clusterReign later — killed where it stands, its lease left
// to run out — so the arm pays exactly one hand-off, at a fixed virtual
// instant.
func (lab *Lab) runClusterArm(spec ClusterSpec, apps []string, replicas int) (_ ClusterMeasurement, err error) {
	meas := ClusterMeasurement{
		Policy:       "naive-equal-split",
		ShardJoules:  make([]float64, spec.Shards),
		ShardSeconds: make([]float64, spec.Shards),
		FinalCaps:    make([]units.Watts, spec.Shards),
	}
	if replicas == 1 {
		meas.Policy = "hierarchical"
	} else if replicas >= 2 {
		meas.Policy = fmt.Sprintf("ha-%d-replicas", replicas)
	}
	defer func() {
		if err != nil {
			err = fmt.Errorf("experiments: %s arm: %w", meas.Policy, err)
		}
	}()
	fleet, err := cluster.NewLockstepFleet(cluster.FleetConfig{
		Shards:  spec.Shards,
		Machine: lab.Machine,
		Workers: spec.Workers,
	}, clusterPollPeriod, spec.Global)
	if err != nil {
		return ClusterMeasurement{}, err
	}
	defer fleet.Close()

	jobs := make([][]workloads.Workload, spec.Shards)
	for i := range jobs {
		for r := 0; r < spec.Iters; r++ {
			wl, err := suite.New(apps[i])
			if err == nil {
				err = wl.Prepare(workloads.Params{
					MachineConfig: fleet.System(i).Machine().Config(),
					Seed:          lab.Seed + int64(r),
				})
			}
			if err != nil {
				return ClusterMeasurement{}, fmt.Errorf("shard %d (%s): %w", i, apps[i], err)
			}
			jobs[i] = append(jobs[i], wl)
		}
	}

	reg := telemetry.NewRegistry() // shared: counters aggregate across replicas
	plane := make([]*cluster.Aggregator, replicas)
	for i := range plane {
		acfg := cluster.AggregatorConfig{
			Shards:    fleet.Endpoints(),
			Global:    spec.Global,
			Floor:     clusterCapFloor,
			Max:       clusterCapMax,
			Period:    clusterPollPeriod,
			Clock:     fleet.Now,
			Telemetry: reg,
		}
		if replicas == 1 {
			acfg.SetCap = fleet.SetCap
		} else {
			acfg.HA = &cluster.HAConfig{
				ID:         uint32(i + 1),
				LeaseTTL:   clusterLeasePeriods * clusterPollPeriod,
				JitterSeed: uint64(lab.Seed) ^ uint64(i+1)<<32,
				WriteCap:   fleet.WriteCap,
			}
		}
		if plane[i], err = cluster.NewSteppedAggregator(acfg, fleet.Source); err != nil {
			return ClusterMeasurement{}, err
		}
	}
	if replicas == 0 {
		share := units.Watts(float64(spec.Global) / float64(spec.Shards))
		for i := 0; i < spec.Shards; i++ {
			if err := fleet.SetCap(i, share); err != nil {
				return ClusterMeasurement{}, err
			}
		}
	}

	if err := fleet.Start(jobs); err != nil {
		return ClusterMeasurement{}, err
	}
	killAt := time.Duration(-1) // when the ruling leader dies; unset until one rules
	for !fleet.Done() {
		if err := fleet.Step(); err != nil {
			return ClusterMeasurement{}, err
		}
		for _, agg := range plane {
			agg.Poll()
		}
		if replicas < 2 || meas.LeaderKills > 0 {
			continue
		}
		for i, agg := range plane {
			st := agg.Status()
			if !st.Leader || len(st.Caps) != spec.Shards || slices.Min(st.Caps) <= 0 {
				continue
			}
			if killAt < 0 {
				killAt = fleet.Now() + clusterReign
			}
			if fleet.Now() >= killAt {
				fleet.MarkKill()
				plane = slices.Delete(plane, i, i+1)
				meas.LeaderKills++
			}
			break
		}
	}

	violations, handoffs := fleet.Audit()
	meas.Polls = reg.Counter("cluster_polls_total").Value()
	meas.Repartitions = reg.Counter("cluster_repartitions_total").Value()
	meas.Elections = reg.Counter("cluster_leader_elections_total").Value()
	meas.ApplyViolations = violations
	if replicas == 1 {
		// Its book is what the fleet enforces; a standby's is an observation.
		meas.ApplyViolations += reg.Counter("cluster_conservation_violations_total").Value()
	}
	if len(handoffs) > 0 {
		meas.HandoffMs = float64(handoffs[0]) / float64(time.Millisecond)
	}
	for i := 0; i < spec.Shards; i++ {
		joules, busy := fleet.Usage(i)
		meas.ShardJoules[i], meas.ShardSeconds[i] = float64(joules), busy.Seconds()
		meas.FinalCaps[i] = fleet.System(i).PowerCapController().Cap()
		meas.TotalJoules += meas.ShardJoules[i]
		meas.MakespanSec = max(meas.MakespanSec, meas.ShardSeconds[i])
	}
	return meas, nil
}

// Render writes the comparison as an aligned text table.
func (r ClusterResult) Render(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "Global power cap ablation: %d shards, %.0f W budget (mix: %s)\n", r.Shards, float64(r.Global), strings.Join(r.Apps, " "))
	fmt.Fprintf(&b, "%-20s %12s %12s %14s\n", "policy", "energy (J)", "makespan (s)", "repartitions")
	arms := []ClusterMeasurement{r.Naive, r.Hierarchical}
	if r.HA != nil {
		arms = append(arms, *r.HA)
	}
	for _, m := range arms {
		fmt.Fprintf(&b, "%-20s %12.1f %12.3f %14d\n", m.Policy, m.TotalJoules, m.MakespanSec, m.Repartitions)
	}
	fmt.Fprintf(&b, "hierarchical vs naive: energy %+.1f%%, makespan %+.1f%%\n", r.EnergyDeltaPct, r.MakespanDeltaPct)
	if r.HA != nil {
		fmt.Fprintf(&b, "ha hand-off cost vs single aggregator: energy %+.1f%%, makespan %+.1f%% (%d elections, %d leader kill(s), hand-off %.0f ms)\n",
			r.HAEnergyDeltaPct, r.HAMakespanDeltaPct, r.HA.Elections, r.HA.LeaderKills, r.HA.HandoffMs)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

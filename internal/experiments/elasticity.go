package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/rcr"
	"repro/internal/units"
)

// Elasticity ablation: how much of the global budget does the fleet
// strand while it changes shape? The membership protocol in
// internal/cluster is deliberately conservative — a joiner is admitted
// at the floor and earns its water-fill share only after its first cap
// write lands and it heartbeats; a leaver steps to the floor and keeps
// those watts budgeted until the operator decommissions it. Both rules
// buy conservation (Σcaps never exceeds the budget, even mid-churn) at
// the price of watts parked where no work happens. This experiment
// steps an Aggregator through a steady → grow → drain → shrink cycle
// over scripted in-memory shards on a manual clock — one loop, so the
// cycle is a pure function of the spec — and integrates that price:
// polls to converge and floor-watt-seconds stranded on members in
// transition.

// ElasticitySpec sizes the elasticity ablation.
type ElasticitySpec struct {
	// Shards is the full fleet size after growth; zero selects 4.
	Shards int
	// Initial is the seeded fleet size before the join wave; zero
	// selects half the fleet (minimum 1).
	Initial int
	// Global is the fleet-wide budget; zero selects 40 W per (full)
	// shard so the band stays binding through every phase.
	Global units.Watts
	// Tick is the modeled time advanced per poll; zero selects 10 ms
	// (the controller cadence the cluster docs recommend).
	Tick time.Duration
}

// ElasticityPhase is one transition's measured cost.
type ElasticityPhase struct {
	Name    string
	Polls   int     // control polls until the phase's convergence condition held
	Seconds float64 // modeled time (Polls × Tick)
	// IdleJoules integrates budget watts assigned to nobody — the gap
	// between the global budget and Σcaps — over the phase.
	IdleJoules float64
	// StrandedJoules integrates floor watts parked on members in
	// transition (Joining, Draining, Drained) over the phase: budgeted,
	// conserved, but doing no useful work yet/anymore.
	StrandedJoules float64
}

// ElasticityResult is the full cycle's accounting.
type ElasticityResult struct {
	Shards  int
	Initial int
	Global  units.Watts
	Phases  []ElasticityPhase
	// FinalCaps is the surviving fleet's assignment after the shrink.
	FinalCaps []units.Watts
	// FinalEpoch is the membership epoch after the full cycle.
	FinalEpoch uint64
}

// elasticityPollBound is how many polls a phase may take to converge;
// every phase of every fleet the spec can describe needs a few dozen.
const elasticityPollBound = 1000

// ElasticityAblation runs the steady → grow → drain → shrink cycle on
// a scripted fleet and returns the per-phase convergence and stranded
// energy accounting.
func (lab *Lab) ElasticityAblation(spec ElasticitySpec) (ElasticityResult, error) {
	if spec.Shards <= 0 {
		spec.Shards = 4
	}
	if spec.Initial <= 0 {
		spec.Initial = spec.Shards / 2
		if spec.Initial < 1 {
			spec.Initial = 1
		}
	}
	if spec.Initial > spec.Shards {
		return ElasticityResult{}, fmt.Errorf("experiments: initial %d exceeds fleet size %d", spec.Initial, spec.Shards)
	}
	if spec.Global <= 0 {
		spec.Global = units.Watts(40 * float64(spec.Shards))
	}
	if spec.Tick <= 0 {
		spec.Tick = 10 * time.Millisecond
	}

	// The scripted fleet: snaps[i] is what shard i's slot reads at a poll.
	endpoints := make([]cluster.ShardEndpoint, spec.Shards)
	snaps := make([]rcr.Snapshot, spec.Shards)
	for i := range endpoints {
		endpoints[i] = cluster.ShardEndpoint{ID: i, Network: "unix", Addr: fmt.Sprintf("elastic-%d", i)}
	}
	var now time.Duration
	clock := func() time.Duration { return now }
	members, err := cluster.NewMembership(endpoints[:spec.Initial], clock)
	if err != nil {
		return ElasticityResult{}, err
	}
	agg, err := cluster.NewSteppedAggregator(cluster.AggregatorConfig{
		Members:       members,
		Global:        spec.Global,
		Floor:         clusterCapFloor,
		Max:           clusterCapMax,
		Period:        spec.Tick,
		HealthHorizon: 10 * spec.Tick,
		Clock:         clock,
		SetCap:        func(int, units.Watts) error { return nil },
	}, func(mb cluster.Member) (cluster.SnapshotSource, error) {
		return func() (rcr.Snapshot, error) { return snaps[mb.ID], nil }, nil
	})
	if err != nil {
		return ElasticityResult{}, err
	}

	res := ElasticityResult{Shards: spec.Shards, Initial: spec.Initial, Global: spec.Global}
	beat := 0.0
	live := make([]bool, spec.Shards)
	for i := 0; i < spec.Initial; i++ {
		live[i] = true
	}
	tickSec := spec.Tick.Seconds()

	// runPhase polls until cond holds, giving every live shard a fresh
	// heartbeat each tick and integrating the idle and stranded watts.
	// The mix alternates memory-bound (concurrency at the knee) and
	// compute-bound shards, so the water-fill has real skew to resolve.
	runPhase := func(name string, cond func(cluster.AggregatorStatus) bool) error {
		ph := ElasticityPhase{Name: name}
		for converged := false; !converged; {
			if ph.Polls == elasticityPollBound {
				return fmt.Errorf("experiments: elasticity phase %q did not converge within %d polls", name, elasticityPollBound)
			}
			now += spec.Tick
			beat++
			for i := range snaps {
				if !live[i] {
					continue
				}
				conc := 4.0
				if i%2 == 0 {
					conc = 26
				}
				snaps[i] = shardSnapAt(beat, 60, conc, now)
			}
			agg.Poll()
			ph.Polls++
			st := agg.Status()
			if gap := float64(spec.Global) - float64(st.CapsSum); gap > 0 {
				ph.IdleJoules += gap * tickSec
			}
			ph.StrandedJoules += float64(clusterCapFloor) * float64(st.Joining+st.Draining+st.Drained) * tickSec
			converged = cond(st)
		}
		ph.Seconds = float64(ph.Polls) * tickSec
		res.Phases = append(res.Phases, ph)
		return nil
	}

	near := func(sum units.Watts) bool { return float64(sum) >= float64(spec.Global)-1e-6 }

	// Phase 1 — steady: the seeded fleet converges on the full budget.
	if err := runPhase("steady", func(st cluster.AggregatorStatus) bool {
		return st.Healthy == spec.Initial && near(st.CapsSum)
	}); err != nil {
		return ElasticityResult{}, err
	}

	// Phase 2 — grow: the remaining shards join. Each is admitted at the
	// floor and activated only after its cap write lands and it
	// heartbeats; convergence is the whole fleet active and the budget
	// fully re-spread.
	for i := spec.Initial; i < spec.Shards; i++ {
		if err := members.Join(endpoints[i]); err != nil {
			return ElasticityResult{}, err
		}
		live[i] = true
	}
	if err := runPhase("grow", func(st cluster.AggregatorStatus) bool {
		return st.Joining == 0 && st.Healthy == spec.Shards && near(st.CapsSum)
	}); err != nil {
		return ElasticityResult{}, err
	}

	// Phase 3 — drain: shard 0 is asked to leave; it steps to the floor
	// and parks there, still budgeted, until the watts are reclaimable.
	if err := members.Drain(0); err != nil {
		return ElasticityResult{}, err
	}
	if err := runPhase("drain", func(st cluster.AggregatorStatus) bool {
		return st.Drained == 1
	}); err != nil {
		return ElasticityResult{}, err
	}

	// Phase 4 — shrink: the operator powers the node off and
	// decommissions it; only now do its floor watts return to the pool.
	if err := members.Decommission(0); err != nil {
		return ElasticityResult{}, err
	}
	live[0] = false
	if err := runPhase("shrink", func(st cluster.AggregatorStatus) bool {
		return st.Healthy == spec.Shards-1 && st.Drained == 0 && near(st.CapsSum)
	}); err != nil {
		return ElasticityResult{}, err
	}

	st := agg.Status()
	res.FinalCaps = append(res.FinalCaps, st.Caps...)
	res.FinalEpoch = st.MembershipEpoch
	return res, nil
}

// shardSnapAt builds one scripted shard snapshot: a heartbeat plus one
// socket reporting power and memory concurrency.
func shardSnapAt(beat, power, conc float64, now time.Duration) rcr.Snapshot {
	return rcr.Snapshot{
		Now:    now,
		System: []rcr.MeterValue{{Name: rcr.MeterHeartbeat, Value: beat, Updated: now}},
		Sockets: []rcr.DomainSnap{{Meters: []rcr.MeterValue{
			{Name: rcr.MeterPower, Value: power, Updated: now},
			{Name: rcr.MeterMemConcurrency, Value: conc, Updated: now},
		}}},
	}
}

// Render writes the per-phase accounting as an aligned text table.
func (r ElasticityResult) Render(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "Elasticity ablation: %d→%d→%d shards, %.0f W budget\n", r.Initial, r.Shards, r.Shards-1, float64(r.Global))
	fmt.Fprintf(&b, "%-10s %8s %10s %10s %12s\n", "phase", "polls", "time (s)", "idle (J)", "stranded (J)")
	var idle, stranded float64
	for _, ph := range r.Phases {
		fmt.Fprintf(&b, "%-10s %8d %10.3f %10.2f %12.2f\n", ph.Name, ph.Polls, ph.Seconds, ph.IdleJoules, ph.StrandedJoules)
		idle += ph.IdleJoules
		stranded += ph.StrandedJoules
	}
	fmt.Fprintf(&b, "total transition cost: %.2f J idle + %.2f J stranded at floors (epoch %d)\n", idle, stranded, r.FinalEpoch)
	_, err := io.WriteString(w, b.String())
	return err
}

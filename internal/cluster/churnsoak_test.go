package cluster

import (
	"testing"
	"time"

	"repro/internal/resilience/leak"
)

// TestChurnSoakSingleSeed runs one full-length churn soak: the fleet
// grows from its base through join
// storms, churns through crashes, drains and re-joins while the WAN
// tier kills leaders, and must converge to the schedule's final fleet
// with zero conservation violations and no orphaned servers.
func TestChurnSoakSingleSeed(t *testing.T) {
	leak.Check(t)
	rep, err := RunScenario(Scenario{Seed: 7, Shards: 4, Peak: 10, Replicas: 2, Budget: 1500 * time.Millisecond})
	if err != nil {
		t.Fatalf("churn soak: %v", err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if rep.Joins == 0 {
		t.Error("no member ever joined")
	}
	if rep.Decommissions == 0 {
		t.Error("no member was ever decommissioned")
	}
	t.Log(rep.Summary())
}

// TestChurnSoakGrowShrink is the headline elasticity shape from the
// robustness plan: N=4 → 64 → 4 under the full fault stack. Not -short
// work: the corpus covers the protocol there.
func TestChurnSoakGrowShrink(t *testing.T) {
	if testing.Short() {
		t.Skip("the 4→64→4 soak is not -short work; the corpus covers the protocol")
	}
	leak.Check(t)
	rep, err := RunScenario(Scenario{
		Seed:     11,
		Shards:   4,
		Peak:     64,
		Replicas: 2,
		Budget:   4 * time.Second,
		// The slacker cadence this shape has always run at; the lease
		// TTL (8×period) and every latency bound scale with it.
		Period: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("churn soak: %v", err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if rep.Peak != 64 {
		t.Fatalf("peak %d, want 64", rep.Peak)
	}
	if rep.Joins < uint64(rep.Peak-rep.Shards) {
		t.Errorf("%d joins cannot have grown the fleet from %d to %d", rep.Joins, rep.Shards, rep.Peak)
	}
	t.Log(rep.Summary())
}

// TestChurnSoakCorpus is the churn gate: a seeded corpus of membership
// schedules layered on WAN fault schedules. Every seed must hold the
// conservation, fenced-write and single-leadership invariants through
// the churn, leave no departed member's server or socket behind, and
// converge — leader, registry and health — to the schedule's replayed
// final fleet. Collectively the corpus must exercise every churn op
// outcome: clean drains, forced departures, and operator retries across
// leader kills.
func TestChurnSoakCorpus(t *testing.T) {
	leak.Check(t)
	var (
		elections, demotions, kills uint64
		applies, joins, decomms     uint64
		cleanDrains, forcedDrains   uint64
		opFailures, opRepairs       uint64
		dropped, held, flushed      uint64
		converged                   uint64
	)
	runs := runSoakCorpus(t, "churn", func(rep *ScenarioReport) {
		elections += rep.Elections
		demotions += rep.Demotions
		kills += rep.LeaderKills
		applies += rep.CapApplies
		joins += rep.Joins
		decomms += rep.Decommissions
		cleanDrains += rep.CleanDrains
		forcedDrains += rep.ForcedDrains
		opFailures += rep.OpFailures
		opRepairs += rep.OpRepairs
		dropped += rep.WANDropped
		held += rep.WANHeld
		flushed += rep.WANFlushed
		if rep.Converged {
			converged++
		}
	})
	if t.Failed() {
		return
	}
	if kills == 0 {
		t.Error("no run ever killed a leader under churn")
	}
	if cleanDrains == 0 {
		t.Error("no drain ever completed cleanly: the Draining→Drained step-down path was never exercised")
	}
	if dropped == 0 {
		t.Error("no write was ever dropped by a partition")
	}
	if held == 0 {
		t.Error("no write was ever held by a split-brain window")
	}
	if joins == 0 || decomms == 0 {
		t.Error("the membership tier never churned the fleet")
	}
	t.Logf("%d runs: %d elections, %d demotions, %d leader-kills, %d applies, %d joins, %d decommissions, %d clean-drains, %d forced-drains, %d op-failures, %d repairs, wan %d dropped/%d held/%d flushed, %d/%d converged",
		runs, elections, demotions, kills, applies, joins, decomms,
		cleanDrains, forcedDrains, opFailures, opRepairs,
		dropped, held, flushed, converged, runs)
}

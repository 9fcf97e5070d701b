package cluster

import (
	"testing"
	"time"

	"repro/internal/resilience/leak"
)

// TestFleetSoakSingleSeed runs one full-length N=8 soak and spells out
// each invariant, so a regression names what broke.
func TestFleetSoakSingleSeed(t *testing.T) {
	leak.Check(t)
	rep, err := RunScenario(Scenario{Seed: 7, Shards: 8, Budget: 1500 * time.Millisecond})
	if err != nil {
		t.Fatalf("soak: %v", err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if rep.Repartitions == 0 {
		t.Error("the budget was never re-partitioned")
	}
	if rep.FinalCapsSumW <= 0 {
		t.Error("no watts were ever assigned")
	}
	t.Log(rep.Summary())
}

// TestFleetSoakN64 is the headline gate: a 64-shard fleet under the
// full fault schedule, zero conservation violations, zero goroutine
// leaks (the scheduler's tasks all unwind), convergence after the
// faults clear. Skipped in -short (the
// corpus covers N=16 there).
func TestFleetSoakN64(t *testing.T) {
	if testing.Short() {
		t.Skip("N=64 soak is not -short work; the corpus covers N=16")
	}
	leak.Check(t)
	rep, err := RunScenario(Scenario{Seed: 64, Shards: 64, Budget: 2 * time.Second})
	if err != nil {
		t.Fatalf("soak: %v", err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if rep.HealthyAtEnd != 64 {
		t.Errorf("only %d/64 shards healthy at end", rep.HealthyAtEnd)
	}
	t.Log(rep.Summary())
}

// TestFleetSoakCorpus fans a seeded corpus of fleet fault schedules
// across a worker pool: every seed must conserve the budget at every
// cap push and converge after its faults clear. Collectively the corpus
// must exercise every shard-tier fault that acts on the aggregator —
// shard kills, and real shard restarts observed through the
// aggregator's epoch detection — so the invariants are known to have
// been tested under fire rather than vacuously. (Resets, slow-loris
// peers, gap resyncs and resubscribes are the client's and the socket's
// behaviour: resilience.TestClientCorpus, rcr's admission tests and
// TestAggregatorDriverOverSockets.)
func TestFleetSoakCorpus(t *testing.T) {
	leak.Check(t)
	var (
		kills, restartsSeen, repartitions uint64
		polls, applies, converged         uint64
	)
	runs := runSoakCorpus(t, "plain", func(rep *ScenarioReport) {
		kills += rep.ShardKills
		restartsSeen += rep.RestartsSeen
		repartitions += rep.Repartitions
		polls += rep.Polls
		applies += rep.CapApplies
		if rep.Converged {
			converged++
		}
	})
	if t.Failed() {
		return
	}
	if kills == 0 {
		t.Error("no run ever killed a shard: the corpus never exercised crash recovery")
	}
	if restartsSeen == 0 {
		t.Error("the aggregator never detected a shard restart: epoch detection was never exercised")
	}
	t.Logf("%d runs × %d shards: %d polls, %d repartitions, %d cap-pushes, %d kills, %d restarts-seen, %d/%d converged",
		runs, soakShape("plain").Shards, polls, repartitions, applies, kills, restartsSeen, converged, runs)
}

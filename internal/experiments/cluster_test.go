package experiments

import (
	"math"
	"os"
	"reflect"
	"testing"

	"repro/internal/units"
)

// checkClusterArm is what holds of every arm of every cluster ablation:
// real energies, a budget conserved at every apply — the auditor on the
// fleet's cap seam and the aggregator's own self-check both silent — and
// final caps inside the band that sum to no more than the budget.
func checkClusterArm(t *testing.T, res ClusterResult, arm ClusterMeasurement) {
	t.Helper()
	if arm.TotalJoules <= 0 || arm.MakespanSec <= 0 {
		t.Fatalf("%s: degenerate arm: %+v", arm.Policy, arm)
	}
	if arm.ApplyViolations != 0 {
		t.Errorf("%s: %d cap applies overdrew the %.0f W budget or landed under a stale fence", arm.Policy, arm.ApplyViolations, float64(res.Global))
	}
	sum := units.Watts(0)
	for i, c := range arm.FinalCaps {
		if c < clusterCapFloor || c > clusterCapMax {
			t.Errorf("%s: shard %d ends capped at %.1f W, outside [%.0f, %.0f]",
				arm.Policy, i, float64(c), float64(clusterCapFloor), float64(clusterCapMax))
		}
		sum += c
	}
	if sum > res.Global+1e-6 {
		t.Errorf("%s: final caps sum to %.3f W, over the %.0f W budget", arm.Policy, float64(sum), float64(res.Global))
	}
}

// TestClusterCapAblation runs the cluster tier's two arms on a skewed
// lulesh/nqueens mix, twice. The fleet and its aggregator share one
// virtual clock, so the two runs must agree to the last float bit, and
// the mechanism can be pinned exactly: the aggregator polls once per
// period of virtual time for as long as the slowest shard runs, it
// repartitions hundreds of times, and no apply ever overdraws the
// budget. The energy
// margin itself is a line of the paperbench golden
// (docs/paperbench_output.txt); its sign is a finding about the policy
// in this regime, not an invariant (EXPERIMENTS.md divergence 3).
func TestClusterCapAblation(t *testing.T) {
	lab := NewLab()
	res, err := lab.ClusterCapAblation(ClusterSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Render(os.Stdout); err != nil {
		t.Fatal(err)
	}
	again, err := lab.ClusterCapAblation(ClusterSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Errorf("two runs of one spec differ:\n%+v\n%+v", res, again)
	}
	checkClusterArm(t, res, res.Naive)
	checkClusterArm(t, res, res.Hierarchical)
	if res.Naive.Polls != 0 || res.Naive.Repartitions != 0 {
		t.Errorf("naive arm has a control plane: %d polls, %d repartitions", res.Naive.Polls, res.Naive.Repartitions)
	}
	want := math.Floor(res.Hierarchical.MakespanSec / clusterPollPeriod.Seconds())
	if got := float64(res.Hierarchical.Polls); math.Abs(got-want) > 1 {
		t.Errorf("hierarchical arm polled %.0f times over a %.3f s makespan, want one poll per %v: %.0f ± 1",
			got, res.Hierarchical.MakespanSec, clusterPollPeriod, want)
	}
	if res.Hierarchical.Repartitions < 100 {
		t.Errorf("hierarchical arm repartitioned %d times in %d polls: the aggregator was barely in the loop",
			res.Hierarchical.Repartitions, res.Hierarchical.Polls)
	}
	t.Logf("energy %+.3f%%, makespan %+.3f%%, %d polls, %d repartitions",
		res.EnergyDeltaPct, res.MakespanDeltaPct, res.Hierarchical.Polls, res.Hierarchical.Repartitions)
}

// TestClusterCapAblationHAArm runs the redundant-control-plane arm: the
// hierarchical policy behind two aggregator replicas writing through the
// nodes' fence guards, with the first ruling leader killed clusterReign
// into its reign. The arm pays exactly one hand-off — one kill, the
// initial election and the takeover — and the successor's first cap lands
// within 4× the lease TTL of the kill, in virtual time. Caps stay at
// their last committed values through the leaderless window, so against
// the single-aggregator arm the HA arm differs by that window and by the
// first election's (nodes run at their 1 kW initial cap until a leader
// exists): a few percent at most.
func TestClusterCapAblationHAArm(t *testing.T) {
	lab := NewLab()
	res, err := lab.ClusterCapAblation(ClusterSpec{Shards: 2, HAReplicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Render(os.Stdout); err != nil {
		t.Fatal(err)
	}
	if res.HA == nil {
		t.Fatal("HAReplicas=2 did not produce an HA arm")
	}
	checkClusterArm(t, res, *res.HA)
	if res.HA.LeaderKills != 1 {
		t.Errorf("HA arm injected %d leader kills, want exactly 1", res.HA.LeaderKills)
	}
	if res.HA.Elections != 2 {
		t.Errorf("HA arm recorded %d elections, want exactly 2 (initial + post-kill takeover)", res.HA.Elections)
	}
	if res.HA.Repartitions == 0 {
		t.Error("HA arm never repartitioned: no leader was ever in the loop")
	}
	ttlMs := float64(clusterLeasePeriods*clusterPollPeriod) / 1e6
	if res.HA.HandoffMs <= 0 || res.HA.HandoffMs > 4*ttlMs {
		t.Errorf("hand-off took %.0f ms of virtual time, want within (0, 4 × the %.0f ms lease TTL]", res.HA.HandoffMs, ttlMs)
	}
	if math.Abs(res.HAEnergyDeltaPct) > 3 || math.Abs(res.HAMakespanDeltaPct) > 3 {
		t.Errorf("HA arm differs from the single aggregator by %+.2f%% energy, %+.2f%% makespan: more than a hand-off can cost",
			res.HAEnergyDeltaPct, res.HAMakespanDeltaPct)
	}
	t.Logf("ha hand-off: %.0f ms, energy %+.3f%%, makespan %+.3f%%", res.HA.HandoffMs, res.HAEnergyDeltaPct, res.HAMakespanDeltaPct)
}

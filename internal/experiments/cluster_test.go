package experiments

import (
	"os"
	"testing"

	"repro/internal/units"
)

// TestClusterCapAblation runs the cluster tier's two arms on a skewed
// lulesh/nqueens mix and checks what is true of the mechanism on every
// run: both arms complete with real energies, the aggregator was in the
// loop, and the caps it left behind conserve the budget inside the
// per-shard bounds. The energy margin between the arms is measured,
// rendered and logged but not asserted: the fleet's nodes and its
// aggregator run on separate clocks (virtual and host), so the margin
// moves with when host-time polls land — EXPERIMENTS.md divergence 3.
func TestClusterCapAblation(t *testing.T) {
	lab := NewLab()
	res, err := lab.ClusterCapAblation(ClusterSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Render(os.Stdout); err != nil {
		t.Fatal(err)
	}
	for _, arm := range []ClusterMeasurement{res.Naive, res.Hierarchical} {
		if arm.TotalJoules <= 0 || arm.MakespanSec <= 0 {
			t.Fatalf("%s: degenerate arm: %+v", arm.Policy, arm)
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
	if res.Hierarchical.Repartitions == 0 {
		t.Error("hierarchical arm never repartitioned: the aggregator was not in the loop")
	}
	t.Logf("energy %+.1f%%, makespan %+.1f%%", res.EnergyDeltaPct, res.MakespanDeltaPct)
}

// TestClusterCapAblationHAArm runs the redundant-control-plane arm: the
// hierarchical policy behind two aggregator replicas on the real fenced
// wire path, with the elected leader killed mid-run. The arm must
// actually pay a hand-off (one kill, a takeover election) and still
// produce sane energy numbers — the reported delta against the
// single-aggregator arm is the hand-off's measured cost.
func TestClusterCapAblationHAArm(t *testing.T) {
	if testing.Short() {
		t.Skip("three full-fleet arms are not -short work")
	}
	lab := NewLab()
	// Iters sizes real wall time, not virtual work: the HA arm needs the
	// workloads still running through elect → cap → settle → kill, or
	// there is no mid-run hand-off to measure.
	res, err := lab.ClusterCapAblation(ClusterSpec{Shards: 2, Iters: 8, HAReplicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Render(os.Stdout); err != nil {
		t.Fatal(err)
	}
	if res.HA == nil {
		t.Fatal("HAReplicas=2 did not produce an HA arm")
	}
	if res.HA.TotalJoules <= 0 || res.HA.MakespanSec <= 0 {
		t.Fatalf("degenerate HA arm: %+v", *res.HA)
	}
	if res.HA.LeaderKills != 1 {
		t.Errorf("HA arm injected %d leader kills, want exactly 1", res.HA.LeaderKills)
	}
	if res.HA.Elections < 2 {
		t.Errorf("HA arm recorded %d elections, want ≥ 2 (initial + post-kill takeover)", res.HA.Elections)
	}
	if res.HA.Repartitions == 0 {
		t.Error("HA arm never repartitioned: no leader was ever in the loop")
	}
	t.Logf("ha hand-off cost: energy %+.1f%%, makespan %+.1f%%", res.HAEnergyDeltaPct, res.HAMakespanDeltaPct)
}

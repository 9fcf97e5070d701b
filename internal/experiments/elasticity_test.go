package experiments

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/resilience/leak"
)

// TestElasticityAblation drives the full steady→grow→drain→shrink
// cycle on a scripted fleet and checks the accounting invariants: every
// phase converges, conservation holds at the end, the join and drain
// transitions strand floor watts (the protocol's stated price), and the
// epoch reflects the whole history. The cycle is one loop on a manual
// clock, so a second run and a run on a single P reproduce every phase —
// polls included — exactly, and no goroutine is ever started.
func TestElasticityAblation(t *testing.T) {
	leak.Check(t)
	lab := NewLab()
	spec := ElasticitySpec{Shards: 3, Initial: 2, Global: 120}
	res, err := lab.ElasticityAblation(spec)
	if err != nil {
		t.Fatal(err)
	}
	again, err := lab.ElasticityAblation(spec)
	if err != nil {
		t.Fatal(err)
	}
	old := runtime.GOMAXPROCS(1)
	single, err := lab.ElasticityAblation(spec)
	runtime.GOMAXPROCS(old)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) || !reflect.DeepEqual(res, single) {
		t.Errorf("runs differ:\n%+v\nagain %+v\nGOMAXPROCS=1 %+v", res, again, single)
	}
	if len(res.Phases) != 4 {
		t.Fatalf("phases = %d, want 4 (%+v)", len(res.Phases), res.Phases)
	}
	for _, ph := range res.Phases {
		if ph.Polls <= 0 {
			t.Errorf("phase %q converged in %d polls", ph.Name, ph.Polls)
		}
	}
	var sum float64
	for _, c := range res.FinalCaps {
		if c < 0 {
			t.Errorf("negative final cap %v", c)
		}
		sum += float64(c)
	}
	if sum > 120+1e-6 {
		t.Errorf("final Σcaps %.3f exceeds the 120 W budget", sum)
	}
	if len(res.FinalCaps) != 2 {
		t.Errorf("final fleet has %d caps, want 2 after the shrink", len(res.FinalCaps))
	}
	// The grow phase must account stranded floor watts for the joiner,
	// and the drain phase for the leaver parked at its floor.
	byName := map[string]ElasticityPhase{}
	for _, ph := range res.Phases {
		byName[ph.Name] = ph
	}
	if byName["grow"].StrandedJoules <= 0 {
		t.Errorf("grow stranded %.3f J, want > 0 (joiner admitted at floor)", byName["grow"].StrandedJoules)
	}
	if byName["drain"].StrandedJoules <= 0 {
		t.Errorf("drain stranded %.3f J, want > 0 (leaver parked at floor)", byName["drain"].StrandedJoules)
	}
	// Join (2), activate (1), drain (1), complete (1), decommission (1)
	// each bump the epoch past the seed's 1.
	if res.FinalEpoch < 6 {
		t.Errorf("final epoch %d, want ≥ 6 after join/activate/drain/complete/decommission", res.FinalEpoch)
	}

	var sb strings.Builder
	if err := res.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Elasticity ablation", "steady", "grow", "drain", "shrink", "stranded"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestElasticityAblationRejectsBadSpec: an initial fleet larger than
// the final fleet is a spec error, not a panic.
func TestElasticityAblationRejectsBadSpec(t *testing.T) {
	lab := NewLab()
	if _, err := lab.ElasticityAblation(ElasticitySpec{Shards: 2, Initial: 3}); err == nil {
		t.Fatal("oversized initial fleet accepted")
	}
}

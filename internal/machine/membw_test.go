package machine

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// maxMinFair runs the engine's allocator on fresh buffers.
func maxMinFair(demands []float64, capacity float64) []float64 {
	alloc := make([]float64, len(demands))
	maxMinFairInto(demands, alloc, make([]bool, len(demands)), capacity)
	return alloc
}

func TestMaxMinFairAllSatisfied(t *testing.T) {
	got := maxMinFair([]float64{10, 20, 30}, 100)
	want := []float64{10, 20, 30}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("alloc[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestMaxMinFairEvenSplit(t *testing.T) {
	got := maxMinFair([]float64{100, 100, 100, 100}, 100)
	for i, g := range got {
		if math.Abs(g-25) > 1e-9 {
			t.Errorf("alloc[%d] = %g, want 25", i, g)
		}
	}
}

func TestMaxMinFairWaterFilling(t *testing.T) {
	// Small demand fully satisfied; the two big ones split the rest.
	got := maxMinFair([]float64{10, 100, 100}, 100)
	if math.Abs(got[0]-10) > 1e-9 {
		t.Errorf("small demand alloc = %g, want 10", got[0])
	}
	if math.Abs(got[1]-45) > 1e-9 || math.Abs(got[2]-45) > 1e-9 {
		t.Errorf("big demand allocs = %g, %g, want 45 each", got[1], got[2])
	}
}

func TestMaxMinFairZeroCapacity(t *testing.T) {
	got := maxMinFair([]float64{5, 10}, 0)
	for i, g := range got {
		if g != 0 {
			t.Errorf("alloc[%d] = %g, want 0", i, g)
		}
	}
}

func TestMaxMinFairNegativeDemand(t *testing.T) {
	got := maxMinFair([]float64{-5, 10}, 100)
	if got[0] != 0 {
		t.Errorf("negative demand alloc = %g, want 0", got[0])
	}
	if math.Abs(got[1]-10) > 1e-9 {
		t.Errorf("alloc[1] = %g, want 10", got[1])
	}
}

func TestMaxMinFairEmpty(t *testing.T) {
	if got := maxMinFair(nil, 100); len(got) != 0 {
		t.Errorf("maxMinFair(nil) = %v, want empty", got)
	}
}

// TestMaxMinFairProperties checks the allocator's invariants on random
// inputs.
func TestMaxMinFairProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		demands := make([]float64, n)
		for i := range demands {
			demands[i] = rng.Float64() * 100
		}
		capacity := rng.Float64() * 300
		alloc := maxMinFair(demands, capacity)
		total := 0.0
		minUnsat := math.Inf(1)
		for i := range alloc {
			if alloc[i] < -1e-9 || alloc[i] > demands[i]+1e-9 {
				t.Logf("alloc[%d]=%g out of [0, demand=%g]", i, alloc[i], demands[i])
				return false
			}
			total += alloc[i]
			if demands[i]-alloc[i] > 1e-9 && alloc[i] < minUnsat {
				minUnsat = alloc[i]
			}
		}
		if total > capacity+1e-6 {
			t.Logf("total %g > capacity %g", total, capacity)
			return false
		}
		// Fairness: every unsatisfied demand gets at least as much as the
		// smallest unsatisfied allocation (they should all be equal).
		for i := range alloc {
			if demands[i]-alloc[i] > 1e-9 && alloc[i]-minUnsat > 1e-6 {
				t.Logf("unfair: alloc[%d]=%g vs min unsat %g", i, alloc[i], minUnsat)
				return false
			}
		}
		// Work conservation: if any demand is unsatisfied, (almost) all
		// capacity is used.
		if minUnsat != math.Inf(1) && capacity-total > 1e-6 {
			t.Logf("capacity unused (%g of %g) with unsatisfied demand", capacity-total, capacity)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEffectiveCapacityPlateau(t *testing.T) {
	m := M620().Mem
	c := float64(m.BandwidthPerSocket)
	if got := m.EffectiveCapacity(0); got != c {
		t.Errorf("effectiveCapacity(0) = %g, want %g", got, c)
	}
	if got := m.EffectiveCapacity(float64(m.KneeRefs)); got != c {
		t.Errorf("effectiveCapacity(knee) = %g, want %g", got, c)
	}
}

func TestEffectiveCapacityDegrades(t *testing.T) {
	m := M620().Mem
	c := float64(m.BandwidthPerSocket)
	at2x := m.EffectiveCapacity(2 * float64(m.KneeRefs))
	if at2x >= c {
		t.Errorf("capacity at 2x knee = %g, want < %g", at2x, c)
	}
	want := c / (1 + m.OversubPenalty)
	if math.Abs(at2x-want) > 1 {
		t.Errorf("capacity at 2x knee = %g, want %g", at2x, want)
	}
	// Monotone: more oversubscription, less capacity.
	if m.EffectiveCapacity(3*float64(m.KneeRefs)) >= at2x {
		t.Error("effective capacity not monotonically decreasing")
	}
}

func TestOutstandingRefsCapsPerCore(t *testing.T) {
	m := M620().Mem
	perRef := float64(m.PerRefBandwidth())
	// One core demanding 100x its cap still counts only MaxRefsPerCore.
	refs := m.OutstandingRefs([]float64{perRef * float64(m.MaxRefsPerCore) * 100})
	if math.Abs(refs-float64(m.MaxRefsPerCore)) > 1e-9 {
		t.Errorf("refs = %g, want %d", refs, m.MaxRefsPerCore)
	}
}

func TestOutstandingRefsAdds(t *testing.T) {
	m := M620().Mem
	perRef := float64(m.PerRefBandwidth())
	refs := m.OutstandingRefs([]float64{perRef, 2 * perRef, 0, -3})
	if math.Abs(refs-3) > 1e-9 {
		t.Errorf("refs = %g, want 3", refs)
	}
}

func TestAllocateUtilization(t *testing.T) {
	m := M620().Mem
	// Demand well below capacity: utilization is total/capacity.
	d := float64(m.BandwidthPerSocket) / 4
	_, _, util := m.allocateInto([]float64{d}, &allocScratch{})
	if math.Abs(util-0.25) > 0.01 {
		t.Errorf("utilization = %g, want 0.25", util)
	}
	// Saturated: utilization clamps to <= 1.
	grants, _, util := m.allocateInto([]float64{1e18, 1e18, 1e18, 1e18}, &allocScratch{})
	if util > 1 {
		t.Errorf("utilization = %g, want <= 1", util)
	}
	total := 0.0
	for _, g := range grants {
		total += g
	}
	if total > float64(m.BandwidthPerSocket)+1 {
		t.Errorf("grants total %g exceed plateau %g", total, float64(m.BandwidthPerSocket))
	}
}

func TestAllocateGrantsRespectCoreCap(t *testing.T) {
	m := M620().Mem
	grants, _, _ := m.allocateInto([]float64{1e18}, &allocScratch{})
	if grants[0] > float64(m.MaxCoreBandwidth())+1 {
		t.Errorf("single-core grant %g exceeds core cap %g", grants[0], float64(m.MaxCoreBandwidth()))
	}
}

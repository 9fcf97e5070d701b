package cluster

import (
	"math"
	"testing"
	"time"

	"repro/internal/units"
)

// splitmix64 mirrors the faults package's stateless PRNG so the property
// corpus here is seeded the same way as every other deterministic corpus
// in the repo.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

type prng struct{ state uint64 }

func (r *prng) next() uint64 {
	r.state = splitmix64(r.state)
	return r.state
}

// float returns a uniform value in [0, 1).
func (r *prng) float() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

// genNodes derives a deterministic fleet from a seed: 1–12 shards with
// floors in [5, 25) W, maxes in [floor, floor+150) W, headroom in [0,1)
// and ~1 in 6 shards unhealthy.
func genNodes(r *prng) []NodeReport {
	n := 1 + int(r.next()%12)
	nodes := make([]NodeReport, n)
	for i := range nodes {
		floor := 5 + 20*r.float()
		nodes[i] = NodeReport{
			Headroom: r.float(),
			Floor:    units.Watts(floor),
			Max:      units.Watts(floor + 150*r.float()),
			Healthy:  r.next()%6 != 0,
		}
	}
	return nodes
}

func checkInvariants(t *testing.T, seed uint64, global units.Watts, nodes []NodeReport, caps []units.Watts) {
	t.Helper()
	if len(caps) != len(nodes) {
		t.Fatalf("seed %d: %d caps for %d nodes", seed, len(caps), len(nodes))
	}
	if s := float64(Sum(caps)); s > float64(global)+sumEps {
		t.Fatalf("seed %d: Σcaps %.9f W exceeds global %.9f W", seed, s, float64(global))
	}
	floorSum := 0.0
	for i := range nodes {
		floorSum += float64(clampFloor(nodes[i]))
	}
	for i, c := range caps {
		if c <= 0 {
			t.Fatalf("seed %d: shard %d assigned non-positive cap %v (SetCap would reject it)", seed, i, c)
		}
		if floorSum <= float64(global) && float64(c) < clampFloor(nodes[i])-sumEps {
			t.Fatalf("seed %d: shard %d cap %v below floor %v with affordable floors", seed, i, c, nodes[i].Floor)
		}
		if float64(c) > clampMax(nodes[i])+sumEps {
			t.Fatalf("seed %d: shard %d cap %v above max %v", seed, i, c, nodes[i].Max)
		}
		if !nodes[i].Healthy && floorSum <= float64(global) && float64(c) > clampFloor(nodes[i])+sumEps {
			t.Fatalf("seed %d: unhealthy shard %d got %v above its floor %v", seed, i, c, nodes[i].Floor)
		}
	}
}

func TestPartitionInvariants(t *testing.T) {
	for seed := uint64(0); seed < 500; seed++ {
		r := &prng{state: seed}
		nodes := genNodes(r)
		global := units.Watts(20 + 1000*r.float())
		caps := Partition(global, nodes, nil)
		checkInvariants(t, seed, global, nodes, caps)
	}
}

func TestPartitionDistributesToSaturation(t *testing.T) {
	// With an ample budget every healthy shard must be driven to its
	// Max — surplus is only ever held back once nobody can absorb more.
	nodes := []NodeReport{
		{Headroom: 0.9, Floor: 10, Max: 100, Healthy: true},
		{Headroom: 0.1, Floor: 10, Max: 80, Healthy: true},
		{Headroom: 0.5, Floor: 10, Max: 60, Healthy: false},
	}
	caps := Partition(1000, nodes, nil)
	if math.Abs(float64(caps[0])-100) > sumEps || math.Abs(float64(caps[1])-80) > sumEps {
		t.Errorf("healthy shards not saturated under ample budget: %v", caps)
	}
	if math.Abs(float64(caps[2])-10) > sumEps {
		t.Errorf("unhealthy shard got %v, want its 10 W floor", caps[2])
	}
}

func TestPartitionProportionalToHeadroom(t *testing.T) {
	// Two identical unsaturated shards: the surplus must split in
	// headroom proportion (3:1 here) on top of equal floors.
	nodes := []NodeReport{
		{Headroom: 0.75, Floor: 10, Max: 1000, Healthy: true},
		{Headroom: 0.25, Floor: 10, Max: 1000, Healthy: true},
	}
	caps := Partition(120, nodes, nil) // surplus 100 → 75/25
	if math.Abs(float64(caps[0])-85) > sumEps || math.Abs(float64(caps[1])-35) > sumEps {
		t.Errorf("caps %v, want [85, 35]", caps)
	}
}

func TestPartitionOvercommittedFloors(t *testing.T) {
	nodes := []NodeReport{
		{Headroom: 1, Floor: 60, Max: 100, Healthy: true},
		{Headroom: 1, Floor: 40, Max: 100, Healthy: true},
	}
	caps := Partition(50, nodes, nil) // floors sum to 100, budget 50
	if s := float64(Sum(caps)); s > 50+sumEps {
		t.Fatalf("overcommitted floors exceed budget: Σ %.6f", s)
	}
	// Proportional scaling: 60:40 ratio preserved.
	if math.Abs(float64(caps[0])-30) > sumEps || math.Abs(float64(caps[1])-20) > sumEps {
		t.Errorf("caps %v, want proportional [30, 20]", caps)
	}
}

func TestPartitionMonotoneInHeadroom(t *testing.T) {
	// Raising one shard's headroom, all else equal, must never shrink
	// that shard's assignment.
	for seed := uint64(0); seed < 300; seed++ {
		r := &prng{state: seed ^ 0xabcdef}
		nodes := genNodes(r)
		global := units.Watts(20 + 800*r.float())
		j := int(r.next() % uint64(len(nodes)))
		nodes[j].Healthy = true
		base := Partition(global, nodes, nil)

		raised := append([]NodeReport(nil), nodes...)
		raised[j].Headroom = nodes[j].Headroom + (1-nodes[j].Headroom)*r.float()
		bumped := Partition(global, raised, nil)
		if float64(bumped[j]) < float64(base[j])-sumEps {
			t.Fatalf("seed %d: shard %d cap fell %.6f -> %.6f after headroom rose %.4f -> %.4f",
				seed, j, float64(base[j]), float64(bumped[j]),
				nodes[j].Headroom, raised[j].Headroom)
		}
	}
}

func TestPartitionDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 100; seed++ {
		r1 := &prng{state: seed}
		nodes1 := genNodes(r1)
		g1 := units.Watts(20 + 1000*r1.float())
		r2 := &prng{state: seed}
		nodes2 := genNodes(r2)
		g2 := units.Watts(20 + 1000*r2.float())
		a := Partition(g1, nodes1, nil)
		b := Partition(g2, nodes2, nil)
		for i := range a {
			if a[i] != b[i] { // bitwise equality, not approximate
				t.Fatalf("seed %d: nondeterministic partition at %d: %v != %v", seed, i, a[i], b[i])
			}
		}
	}
}

func TestPartitionDegenerateInputs(t *testing.T) {
	if got := Partition(100, nil, nil); len(got) != 0 {
		t.Errorf("nil nodes produced %v", got)
	}
	// Garbage reports must still produce safe, positive, conserving caps.
	nodes := []NodeReport{
		{Headroom: math.NaN(), Floor: -5, Max: -10, Healthy: true},
		{Headroom: 7, Floor: 0, Max: 0, Healthy: true},
	}
	caps := Partition(-3, nodes, nil)
	if s := float64(Sum(caps)); s > sumEps {
		t.Errorf("negative budget distributed %.6f W", s)
	}
	caps = Partition(50, nodes, nil)
	for i, c := range caps {
		if c <= 0 {
			t.Errorf("shard %d: non-positive cap %v from garbage report", i, c)
		}
	}
	if s := float64(Sum(caps)); s > 50+sumEps {
		t.Errorf("garbage reports broke conservation: Σ %.6f", s)
	}
}

// TestPartitionDegenerateProperties property-tests the shapes the
// generator above cannot reach: empty fleets, single-shard fleets,
// fleets whose floors exactly exhaust the budget, and inverted
// Floor/Max bands (which Partition clamps to a floor-pinned band and
// NewAggregator rejects outright).
func TestPartitionDegenerateProperties(t *testing.T) {
	for seed := uint64(0); seed < 300; seed++ {
		r := &prng{state: seed ^ 0xde9e}
		global := units.Watts(1 + 1000*r.float())

		// Zero shards: no caps, regardless of budget, nil or empty input.
		if got := Partition(global, nil, nil); len(got) != 0 {
			t.Fatalf("seed %d: nil fleet produced %v", seed, got)
		}
		if got := Partition(global, []NodeReport{}, nil); len(got) != 0 {
			t.Fatalf("seed %d: empty fleet produced %v", seed, got)
		}

		// One shard: the whole eligible budget lands on it — a healthy
		// shard is driven to min(Max, budget) whenever the budget covers
		// its floor; an unhealthy one is pinned to its floor.
		floor := 5 + 20*r.float()
		one := []NodeReport{{
			Headroom: r.float(),
			Floor:    units.Watts(floor),
			Max:      units.Watts(floor + 150*r.float()),
			Healthy:  r.next()%2 == 0,
		}}
		caps := Partition(global, one, nil)
		checkInvariants(t, seed, global, one, caps)
		if float64(global) >= floor {
			want := clampFloor(one[0])
			if one[0].Healthy {
				want = math.Min(clampMax(one[0]), float64(global))
			}
			if math.Abs(float64(caps[0])-want) > sumEps {
				t.Fatalf("seed %d: single shard (healthy=%v) got %v, want %.6f",
					seed, one[0].Healthy, caps[0], want)
			}
		}

		// Floors exactly exhaust the budget: every shard gets precisely
		// its floor — no scaling, no surplus, healthy or not.
		nodes := genNodes(r)
		floorSum := 0.0
		for i := range nodes {
			floorSum += clampFloor(nodes[i])
		}
		caps = Partition(units.Watts(floorSum), nodes, nil)
		checkInvariants(t, seed, units.Watts(floorSum), nodes, caps)
		for i, c := range caps {
			if math.Abs(float64(c)-clampFloor(nodes[i])) > sumEps {
				t.Fatalf("seed %d: floors == budget but shard %d got %v, floor %.6f",
					seed, i, c, clampFloor(nodes[i]))
			}
		}

		// Inverted band (Max < Floor): Partition clamps the max up to the
		// floor, so an affordable fleet pins every shard exactly at its
		// floor and conservation still holds.
		inverted := genNodes(r)
		for i := range inverted {
			inverted[i].Max = inverted[i].Floor - units.Watts(1+10*r.float())
			inverted[i].Healthy = true
		}
		big := units.Watts(5000)
		caps = Partition(big, inverted, nil)
		checkInvariants(t, seed, big, inverted, caps)
		for i, c := range caps {
			if math.Abs(float64(c)-clampFloor(inverted[i])) > sumEps {
				t.Fatalf("seed %d: inverted band shard %d got %v, want its %.6f floor",
					seed, i, c, clampFloor(inverted[i]))
			}
		}
	}
}

// TestAggregatorRejectsInvertedBand: the config layer refuses Max <
// Floor instead of silently clamping the whole fleet to its floors.
func TestAggregatorRejectsInvertedBand(t *testing.T) {
	_, err := NewAggregator(AggregatorConfig{
		Shards: []ShardEndpoint{{ID: 0, Network: "unix", Addr: "x.sock"}},
		Global: 100,
		Floor:  50,
		Max:    20,
		Clock:  func() time.Duration { return 0 },
		SetCap: func(int, units.Watts) error { return nil },
	})
	if err == nil {
		t.Fatal("NewAggregator accepted Max < Floor")
	}
}

func TestPartitionReusesOutBuffer(t *testing.T) {
	nodes := genNodes(&prng{state: 7})
	buf := make([]units.Watts, 0, 32)
	caps := Partition(200, nodes, buf)
	if &caps[0] != &buf[:1][0] {
		t.Error("Partition allocated despite sufficient out capacity")
	}
}

// TestApplyOrderConservation is the mid-repartition half of the
// conservation property: replaying a re-partition one SetCap at a time
// in ApplyOrder, the fleet-wide sum must stay within the global budget
// at every intermediate step, for 400 seeded before/after pairs.
func TestApplyOrderConservation(t *testing.T) {
	for seed := uint64(0); seed < 400; seed++ {
		r := &prng{state: seed ^ 0x5eed}
		nodes := genNodes(r)
		global := units.Watts(20 + 1000*r.float())
		old := Partition(global, nodes, nil)

		// Perturb the fleet the way a real poll does: headroom moves,
		// health flips.
		for i := range nodes {
			nodes[i].Headroom = r.float()
			if r.next()%5 == 0 {
				nodes[i].Healthy = !nodes[i].Healthy
			}
		}
		next := Partition(global, nodes, nil)

		order := ApplyOrder(old, next, nil)
		if len(order) != len(old) {
			t.Fatalf("seed %d: order has %d entries for %d shards", seed, len(order), len(old))
		}
		seen := make([]bool, len(old))
		running := append([]units.Watts(nil), old...)
		for _, idx := range order {
			if idx < 0 || idx >= len(old) || seen[idx] {
				t.Fatalf("seed %d: order %v is not a permutation", seed, order)
			}
			seen[idx] = true
			running[idx] = next[idx]
			if s := float64(Sum(running)); s > float64(global)+sumEps {
				t.Fatalf("seed %d: mid-repartition Σ %.6f W exceeds global %.6f W after applying shard %d",
					seed, s, float64(global), idx)
			}
		}
	}
}

func TestApplyOrderDecreasesFirst(t *testing.T) {
	old := []units.Watts{50, 30, 40}
	next := []units.Watts{20, 60, 40}
	order := ApplyOrder(old, next, nil)
	want := []int{0, 2, 1} // decreases/equal in index order, then increases
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	ApplyOrder(old, next[:2], nil)
}

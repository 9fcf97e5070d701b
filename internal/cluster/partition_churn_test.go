package cluster

import (
	"testing"

	"repro/internal/units"
)

// Partitioner-level churn properties: the membership tier grows and
// shrinks the fleet by adding and removing slots between partitions,
// and the pure-function contract the aggregator relies on is that a
// repartition across a membership change, walked in ApplyOrder, never
// lets the fleet's running total escape the envelope of the two
// assignments it moves between — and that a departed slot, once its
// watts are handed back, is never assigned again.
//
// The suite models churn exactly the way reconcile does: a fixed
// universe of shard identities, an active subset, and caps tracked over
// the UNION of the old and new fleets so a departure is an explicit
// step down to zero rather than a slot silently vanishing mid-walk.

// churnFleet is one step's fleet: the active identity set and its
// reports, indexed by universe slot.
type churnFleet struct {
	active []bool
	nodes  []NodeReport
}

func genChurnFleet(r *prng, universe int) churnFleet {
	f := churnFleet{
		active: make([]bool, universe),
		nodes:  make([]NodeReport, universe),
	}
	for i := 0; i < universe; i++ {
		floor := 5 + 20*r.float()
		f.nodes[i] = NodeReport{
			Headroom: r.float(),
			Floor:    units.Watts(floor),
			Max:      units.Watts(floor + 150*r.float()),
			Healthy:  r.next()%6 != 0,
		}
		f.active[i] = r.next()%2 == 0
	}
	// At least one member, or there is nothing to partition.
	f.active[int(r.next()%uint64(universe))] = true
	return f
}

// partitionActive runs the partitioner over the active subset and
// scatters the result back onto universe slots; inactive slots get 0.
func partitionActive(global units.Watts, f churnFleet) []units.Watts {
	var sub []NodeReport
	var idx []int
	for i, on := range f.active {
		if on {
			sub = append(sub, f.nodes[i])
			idx = append(idx, i)
		}
	}
	caps := Partition(global, sub, nil)
	out := make([]units.Watts, len(f.active))
	for j, i := range idx {
		out[i] = caps[j]
	}
	return out
}

// churnStep mutates the fleet the way one membership op does: a join
// (activate an inactive slot), a departure (deactivate an active one),
// or both — plus the usual per-poll report drift.
func churnStep(r *prng, f *churnFleet) {
	switch r.next() % 4 {
	case 0: // join
		for pass := 0; pass < len(f.active); pass++ {
			i := int(r.next() % uint64(len(f.active)))
			if !f.active[i] {
				f.active[i] = true
				break
			}
		}
	case 1: // departure (keep at least one member)
		n := 0
		for _, on := range f.active {
			if on {
				n++
			}
		}
		if n > 1 {
			for pass := 0; pass < len(f.active); pass++ {
				i := int(r.next() % uint64(len(f.active)))
				if f.active[i] {
					f.active[i] = false
					break
				}
			}
		}
	case 2: // swap: one out, one in
		for pass := 0; pass < len(f.active); pass++ {
			i, j := int(r.next()%uint64(len(f.active))), int(r.next()%uint64(len(f.active)))
			if f.active[i] && !f.active[j] {
				f.active[i], f.active[j] = false, true
				break
			}
		}
	}
	for i := range f.nodes {
		f.nodes[i].Headroom = r.float()
		if r.next()%7 == 0 {
			f.nodes[i].Healthy = !f.nodes[i].Healthy
		}
	}
}

// TestPartitionChurnEnvelope: across a random churn history, walking
// every repartition in ApplyOrder keeps the running Σ within
// max(Σold, Σnew) + ε at every intermediate step — the conservation
// envelope that makes elastic membership safe to actuate one cap write
// at a time.
func TestPartitionChurnEnvelope(t *testing.T) {
	const universe = 10
	for seed := uint64(0); seed < 300; seed++ {
		r := &prng{state: seed ^ 0xc08b}
		global := units.Watts(50 + 900*r.float())
		fleet := genChurnFleet(r, universe)
		caps := partitionActive(global, fleet)

		for step := 0; step < 12; step++ {
			churnStep(r, &fleet)
			next := partitionActive(global, fleet)

			envelope := float64(Sum(caps))
			if s := float64(Sum(next)); s > envelope {
				envelope = s
			}
			order := ApplyOrder(caps, next, nil)
			running := append([]units.Watts(nil), caps...)
			for _, i := range order {
				running[i] = next[i]
				if s := float64(Sum(running)); s > envelope+sumEps {
					t.Fatalf("seed %d step %d: mid-churn Σ %.6f W exceeds envelope %.6f W after slot %d",
						seed, step, s, envelope, i)
				}
			}
			caps = next
		}
	}
}

// TestPartitionChurnDepartedStaysZero: once a slot leaves the fleet its
// assignment is zero and stays zero through every later repartition —
// no churn history may ever hand watts back to a departed identity, and
// the step that zeroes it is ordered with the decreases (before any
// survivor absorbs its surplus).
func TestPartitionChurnDepartedStaysZero(t *testing.T) {
	const universe = 8
	for seed := uint64(0); seed < 300; seed++ {
		r := &prng{state: seed ^ 0xdead}
		global := units.Watts(50 + 900*r.float())
		fleet := genChurnFleet(r, universe)
		caps := partitionActive(global, fleet)
		departed := make([]bool, universe)

		for step := 0; step < 12; step++ {
			wasActive := append([]bool(nil), fleet.active...)
			churnStep(r, &fleet)
			for i := range departed {
				switch {
				case wasActive[i] && !fleet.active[i]:
					departed[i] = true
				case fleet.active[i]:
					departed[i] = false // re-joined: eligible again
				}
			}
			next := partitionActive(global, fleet)
			for i, gone := range departed {
				if gone && next[i] != 0 {
					t.Fatalf("seed %d step %d: departed slot %d assigned %.3f W",
						seed, step, i, float64(next[i]))
				}
			}

			// The zeroing write must sort with the decreases: by the time
			// any slot's assignment grows, every departed slot has already
			// been stepped to zero.
			order := ApplyOrder(caps, next, nil)
			running := append([]units.Watts(nil), caps...)
			for _, i := range order {
				if next[i] > running[i] {
					for j, gone := range departed {
						if gone && running[j] != 0 {
							t.Fatalf("seed %d step %d: slot %d raised while departed slot %d still holds %.3f W",
								seed, step, i, j, float64(running[j]))
						}
					}
				}
				running[i] = next[i]
			}
			caps = next
		}
	}
}

// TestPartitionChurnRejoinFromFloor: a slot that departs and later
// re-joins re-enters through the same partition contract as any other
// member — its first assignment is at least its (clamped) floor, and
// the fleet total still conserves. This is the partitioner half of the
// rejoin-residue story: the aggregator clamps the book, the partitioner
// guarantees a floor-funded re-entry exists inside the budget.
func TestPartitionChurnRejoinFromFloor(t *testing.T) {
	const universe = 6
	for seed := uint64(0); seed < 200; seed++ {
		r := &prng{state: seed ^ 0xf1007}
		global := units.Watts(120 + 600*r.float())
		fleet := genChurnFleet(r, universe)
		victim := -1
		for i, on := range fleet.active {
			if on {
				victim = i
				break
			}
		}
		fleet.active[victim] = false
		n := 0
		for _, on := range fleet.active {
			if on {
				n++
			}
		}
		if n == 0 {
			fleet.active[(victim+1)%universe] = true
		}
		partitionActive(global, fleet) // departed state

		fleet.active[victim] = true // re-join
		next := partitionActive(global, fleet)
		if s := float64(Sum(next)); s > float64(global)+sumEps {
			t.Fatalf("seed %d: rejoin partition Σ %.6f W exceeds %.6f W", seed, s, float64(global))
		}
		floorSum := 0.0
		for i, on := range fleet.active {
			if on {
				floorSum += clampFloor(fleet.nodes[i])
			}
		}
		want := clampFloor(fleet.nodes[victim])
		if floorSum > float64(global) {
			want *= float64(global) / floorSum // overcommitted: floors scale
		}
		if float64(next[victim]) < want-sumEps {
			t.Fatalf("seed %d: re-joined slot %d granted %.3f W, below its funded floor %.3f W",
				seed, victim, float64(next[victim]), want)
		}
	}
}

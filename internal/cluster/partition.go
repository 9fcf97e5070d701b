// Package cluster scales the single-node rcrd stack out to a simulated
// fleet. N independent core.System instances (shards) each run their own
// sampler, blackboard and rcrd server; an aggregator tier subscribes to
// every shard's delta stream, derives each shard's health and scaling
// headroom from its snapshots, and divides a global power budget across
// the shards — the multi-node power-clamping environment the paper's §VI
// outlook sketches around Rountree et al.'s hierarchical power
// allocation. Per-node enforcement stays where it already lives: each
// shard's MAESTRO daemon, under the maestro.PowerCapped policy, receives
// its share via SetCap and walks its own throttle toward it.
//
// The partitioner in this file is deliberately a pure function so its
// invariants can be property-tested in isolation:
//
//   - conservation: Σ(assigned caps) never exceeds the global budget,
//     and ApplyOrder sequences a re-partition so the invariant holds at
//     every intermediate step, not just at the endpoints;
//   - floors: no shard is pushed below its configured floor while the
//     budget can afford all floors (an overcommitted budget scales all
//     floors proportionally rather than zeroing anyone);
//   - monotonicity: raising one shard's reported headroom, all else
//     equal, never shrinks that shard's assignment;
//   - determinism: the same inputs always produce bitwise-identical
//     output.
package cluster

import "repro/internal/units"

// NodeReport is one shard's input to the budget partitioner: what the
// aggregator learned about the shard from its rolled-up meters.
type NodeReport struct {
	// Headroom in [0,1] is the shard's scaling headroom — how far its
	// workload sits below the memory-bandwidth knee, i.e. how much extra
	// power it could turn into throughput. The aggregator derives it
	// from the shard's memory-concurrency meter against the machine
	// preset's knee: a compute-bound shard (nqueens) reports high
	// headroom, a memory-bound one (lulesh) reports low headroom because
	// the paper shows throttling barely costs it performance. Values
	// outside [0,1] are clamped.
	Headroom float64
	// Floor is the smallest cap the shard may be assigned. It must stay
	// positive: maestro.Daemon.SetCap rejects non-positive bounds, and a
	// shard starved to zero watts could never report back. Non-positive
	// floors are clamped to a minimal positive floor.
	Floor units.Watts
	// Max is the most power the shard can usefully absorb (its uncapped
	// draw); budget beyond Max is redistributed to other shards rather
	// than wasted. Max below Floor is clamped up to Floor.
	Max units.Watts
	// Healthy marks the shard live. An unhealthy shard keeps only its
	// floor — enough to stay enforceable when it returns — and its
	// surplus share flows to the healthy shards.
	Healthy bool
}

// minFloor is the clamp applied to non-positive floors, in watts. One
// watt is far below any real node's idle draw; it exists only so a
// defective report can never produce a cap SetCap would reject.
const minFloor = 1.0

// waterEps is the residue below which water-filling stops: surplus
// smaller than a milliwatt is measurement noise, and chasing it would
// only burn passes.
const waterEps = 1e-3

// sumEps is the conservation tolerance on Σcaps comparisons:
// water-filling grants from a strictly decreasing remainder, so any
// overshoot is pure float64 rounding — far below a microwatt on
// fleet-scale sums. The property tests and the aggregator's runtime
// self-check both judge against it.
const sumEps = 1e-6

func clampFloor(n NodeReport) float64 {
	f := float64(n.Floor)
	if f < minFloor {
		f = minFloor
	}
	return f
}

func clampMax(n NodeReport) float64 {
	m := float64(n.Max)
	if f := clampFloor(n); m < f {
		m = f
	}
	return m
}

func clampHeadroom(h float64) float64 {
	switch {
	case h < 0 || h != h: // negative or NaN
		return 0
	case h > 1:
		return 1
	}
	return h
}

// Partition divides the global budget across the reported shards and
// returns the per-shard caps, reusing out's backing array when it is
// large enough. The algorithm is two-phase:
//
//  1. Floors: every shard, healthy or not, is assigned its floor. If
//     the floors alone overcommit the budget, all floors are scaled
//     down proportionally so their sum equals the budget.
//  2. Water-filling: the surplus is distributed to healthy shards in
//     proportion to their headroom, clamped at each shard's Max; budget
//     a saturated shard cannot absorb is redistributed among the rest
//     in further passes. If every eligible shard reports zero headroom
//     the surplus is split equally instead. Surplus no healthy shard
//     can absorb is held back, not burned.
//
// The returned caps always satisfy Σ(caps) ≤ global (up to float64
// rounding, which the implementation biases to under- rather than
// over-shoot by granting from a strictly decreasing remainder).
func Partition(global units.Watts, nodes []NodeReport, out []units.Watts) []units.Watts {
	if cap(out) < len(nodes) {
		out = make([]units.Watts, len(nodes))
	}
	out = out[:len(nodes)]
	if len(nodes) == 0 {
		return out
	}
	g := float64(global)
	if g < 0 || g != g {
		g = 0
	}

	// Phase 1: floors, scaled down proportionally when overcommitted.
	floorSum := 0.0
	for i := range nodes {
		floorSum += clampFloor(nodes[i])
	}
	scale := 1.0
	if floorSum > g {
		scale = g / floorSum
	}
	remaining := g
	for i := range nodes {
		grant := clampFloor(nodes[i]) * scale
		if grant > remaining {
			grant = remaining
		}
		out[i] = units.Watts(grant)
		remaining -= grant
	}

	// Phase 2: water-fill the surplus. Each pass either drains the
	// surplus or saturates at least one shard at its Max, so the pass
	// count is bounded by the shard count.
	for pass := 0; pass <= len(nodes) && remaining > waterEps; pass++ {
		wsum := 0.0
		eligible := 0
		for i := range nodes {
			if !nodes[i].Healthy || float64(out[i]) >= clampMax(nodes[i]) {
				continue
			}
			wsum += clampHeadroom(nodes[i].Headroom)
			eligible++
		}
		if eligible == 0 {
			break // surplus held back
		}
		budget := remaining
		progressed := false
		for i := range nodes {
			maxW := clampMax(nodes[i])
			if !nodes[i].Healthy || float64(out[i]) >= maxW {
				continue
			}
			var share float64
			if wsum > 0 {
				share = budget * clampHeadroom(nodes[i].Headroom) / wsum
			} else {
				share = budget / float64(eligible)
			}
			if room := maxW - float64(out[i]); share > room {
				share = room
			}
			if share > remaining {
				share = remaining
			}
			if share <= 0 {
				continue
			}
			out[i] = units.Watts(float64(out[i]) + share)
			remaining -= share
			progressed = true
		}
		if !progressed {
			break // only zero-headroom shards remain and wsum > 0 rounds to nothing
		}
	}
	return out
}

// Sum totals a cap assignment.
func Sum(caps []units.Watts) units.Watts {
	var s units.Watts
	for _, c := range caps {
		s += c
	}
	return s
}

// ApplyOrder returns the order in which to push a re-partition from old
// to next so that the fleet-wide sum of applied caps never exceeds
// max(Σold, Σnext) at any intermediate step: all decreases first, then
// all increases, each group in index order. With decreases applied
// first the running sum only falls from Σold; once the increases start,
// every shard it has touched already holds its next value, so the
// running sum is bounded by Σnext. The result is a permutation of the
// indices, written into out's storage when it has the capacity (pass
// the previous result back to repartition without allocating); old and
// next must be the same length (ApplyOrder panics otherwise, since a
// mismatched re-partition is a programming error).
func ApplyOrder(old, next []units.Watts, out []int) []int {
	if len(old) != len(next) {
		panic("cluster: ApplyOrder length mismatch")
	}
	order := out[:0]
	for i := range next {
		if next[i] <= old[i] {
			order = append(order, i)
		}
	}
	for i := range next {
		if next[i] > old[i] {
			order = append(order, i)
		}
	}
	return order
}

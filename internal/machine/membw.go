package machine

// Memory bandwidth allocation: per engine step, every core stalled on (or
// streaming from) memory declares a bandwidth demand in bytes/second, and
// the socket's capacity is divided among them max-min fairly. Beyond the
// outstanding-references knee the total achievable bandwidth plateaus and
// the effective capacity degrades slightly, modeling worsening latency
// (Mandel et al., ISPASS 2010).

// MaxMinFair allocates capacity among the given demands using the
// water-filling algorithm. The returned slice is aligned with demands.
//
// Invariants (enforced by property tests):
//   - alloc[i] <= demands[i]
//   - sum(alloc) <= capacity (+ float slop)
//   - a demand at or below its fair share is fully satisfied
//   - unsatisfied demands all receive the same share
//
// Negative demands are treated as zero.
func MaxMinFair(demands []float64, capacity float64) []float64 {
	alloc := make([]float64, len(demands))
	maxMinFairInto(demands, alloc, make([]bool, len(demands)), capacity)
	return alloc
}

// maxMinFairInto is MaxMinFair writing into caller-owned buffers: alloc
// and satisfied must be len(demands). It is the engine's allocation-free
// hot path; the arithmetic (and its order) is exactly MaxMinFair's.
func maxMinFairInto(demands, alloc []float64, satisfied []bool, capacity float64) {
	for i := range alloc {
		alloc[i] = 0
	}
	if capacity <= 0 || len(demands) == 0 {
		return
	}
	remaining := capacity
	unsat := 0
	for i, d := range demands {
		if d <= 0 {
			satisfied[i] = true
		} else {
			satisfied[i] = false
			unsat++
		}
	}
	// Each round, grant every unsatisfied demand its equal share of the
	// remaining capacity; demands below the share are fully satisfied and
	// return their slack to the pool. At least one demand is satisfied per
	// round, so this terminates in at most len(demands) rounds.
	for unsat > 0 && remaining > 0 {
		share := remaining / float64(unsat)
		progressed := false
		for i, d := range demands {
			if satisfied[i] {
				continue
			}
			if d <= share {
				alloc[i] = d
				remaining -= d
				satisfied[i] = true
				unsat--
				progressed = true
			}
		}
		if !progressed {
			// Every remaining demand exceeds the share: split evenly.
			for i := range demands {
				if !satisfied[i] {
					alloc[i] = share
				}
			}
			remaining = 0
		}
	}
}

// EffectiveCapacity returns the socket's usable bandwidth given the total
// outstanding references implied by the demand set. At or below the knee
// the full plateau bandwidth is available; beyond it, capacity degrades by
// OversubPenalty per unit of relative oversubscription. It is exported
// for calibration code that needs the oversubscription-degraded socket
// bandwidth.
func (m MemParams) EffectiveCapacity(outstandingRefs float64) float64 {
	c := float64(m.BandwidthPerSocket)
	knee := float64(m.KneeRefs)
	if outstandingRefs <= knee || knee <= 0 {
		return c
	}
	over := outstandingRefs/knee - 1
	return c / (1 + m.OversubPenalty*over)
}

// OutstandingRefs converts a set of bandwidth demands into the number of
// reference streams they represent, with each core capped at
// MaxRefsPerCore.
func (m MemParams) OutstandingRefs(demands []float64) float64 {
	perRef := float64(m.PerRefBandwidth())
	if perRef <= 0 {
		return 0
	}
	total := 0.0
	cap := float64(m.MaxRefsPerCore)
	for _, d := range demands {
		if d <= 0 {
			continue
		}
		refs := d / perRef
		if refs > cap {
			refs = cap
		}
		total += refs
	}
	return total
}

// allocScratch holds the per-call working slices of allocateInto so the
// engine's per-step allocations can reuse one buffer set. Owned by the
// stepper (the holder of the stepping claim); see docs/engine.md for the
// ownership rules.
type allocScratch struct {
	capped    []float64
	grants    []float64
	satisfied []bool
}

// grow sizes the scratch for n demands, reusing backing arrays when they
// are already large enough.
func (s *allocScratch) grow(n int) {
	if cap(s.capped) < n {
		s.capped = make([]float64, n)
		s.grants = make([]float64, n)
		s.satisfied = make([]bool, n)
	}
	s.capped = s.capped[:n]
	s.grants = s.grants[:n]
	s.satisfied = s.satisfied[:n]
}

// allocateInto is allocate writing into reusable scratch buffers: the
// engine's zero-allocation hot path. The returned grants slice aliases
// the scratch and is only valid until the next call with the same
// scratch.
func (m MemParams) allocateInto(demands []float64, s *allocScratch) (grants []float64, refs float64, utilization float64) {
	s.grow(len(demands))
	coreCap := float64(m.MaxCoreBandwidth())
	for i, d := range demands {
		if d < 0 {
			d = 0
		}
		if d > coreCap {
			d = coreCap
		}
		s.capped[i] = d
	}
	refs = m.OutstandingRefs(s.capped)
	maxMinFairInto(s.capped, s.grants, s.satisfied, m.EffectiveCapacity(refs))
	grants = s.grants
	total := 0.0
	for _, g := range grants {
		total += g
	}
	if c := float64(m.BandwidthPerSocket); c > 0 {
		utilization = total / c
		if utilization > 1 {
			utilization = 1
		}
	}
	return grants, refs, utilization
}

package maestro

import (
	"testing"
	"time"

	"repro/internal/machine"
)

// adaptiveHarness drives the adaptive controller against a synthetic
// efficiency landscape: each poll's power/bandwidth readings are derived
// from the operating point the controller most recently asked for, which
// is exactly the feedback loop the daemon provides (one poll of sampler
// lag is modelled by windowDone's skipped first dwell poll).
type adaptiveHarness struct {
	t   *testing.T
	a   *adaptive
	now time.Duration
	// eff maps an operating point to bandwidth-per-watt; the harness
	// fixes bandwidth and derives power so windows measure exactly eff.
	eff func(pt OperatingPoint) float64
	bw  float64
	pt  OperatingPoint
}

func newAdaptiveHarness(t *testing.T, eff func(OperatingPoint) float64, bw float64) *adaptiveHarness {
	t.Helper()
	a := newAdaptive(machine.M620(), 6, nil, nil)
	return &adaptiveHarness{t: t, a: a, eff: eff, bw: bw, pt: a.full}
}

// poll advances one daemon poll. hot=true feeds the rule's Enable
// verdict (High/High on some socket); hot=false feeds Disable (all-Low).
// scale multiplies the workload signature (to provoke the change-point
// detector).
func (h *adaptiveHarness) poll(hot bool, scale float64) OperatingPoint {
	h.t.Helper()
	e := h.eff(h.pt)
	if e <= 0 {
		h.t.Fatalf("landscape has no efficiency for %+v", h.pt)
	}
	bw := h.bw * scale
	power := bw / e
	verdict := Disable
	if hot {
		verdict = Enable
	}
	h.pt = h.a.step(PolicyInput{
		Now:     h.now,
		Power:   []float64{power / 2, power / 2},
		Conc:    []float64{56, 56}, // knee 28 over 8 cores/socket seeds the climb at limit 4
		Membw:   []float64{bw / 2, bw / 2},
		Verdict: verdict,
	})
	h.now += DefaultPeriod
	return h.pt
}

// settle polls hot until the requested point stops changing (quiet
// consecutive polls), failing after limit polls.
func (h *adaptiveHarness) settle(quiet, limit int) OperatingPoint {
	h.t.Helper()
	stable := 0
	for i := 0; i < limit; i++ {
		prev := h.pt
		if h.poll(true, 1) == prev {
			stable++
			if stable >= quiet {
				return h.pt
			}
		} else {
			stable = 0
		}
	}
	h.t.Fatalf("operating point never settled within %d polls (last %+v)", limit, h.pt)
	return OperatingPoint{}
}

// limitLandscape peaks at a per-shepherd limit of 5; gears only ever
// lose. Unknown limits fall off toward zero so the climb can never walk
// away unbounded.
func limitLandscape(pt OperatingPoint) float64 {
	base := map[int]float64{3: 0.80, 4: 1.00, 5: 1.25, 6: 1.10, 7: 0.95, 8: 0.85}[pt.Limit]
	if base == 0 {
		base = 0.1
	}
	if !pt.Throttled {
		base = 1.05 // released: decent but below the optimum
	}
	if pt.FreqScale < 1 {
		base *= 0.8
	}
	return base
}

func TestAdaptiveClimbsToEfficiencyPeak(t *testing.T) {
	// Bandwidth well under half the node plateau: the gear sweep's
	// saturation gate must keep DVFS out of the picture.
	h := newAdaptiveHarness(t, limitLandscape, 1e9)

	if got := h.poll(false, 1); got.Throttled {
		t.Fatalf("throttled while idle: %+v", got)
	}
	pt := h.settle(12, 400)
	want := OperatingPoint{Throttled: true, Limit: 5, FreqScale: 1}
	if pt != want {
		t.Fatalf("converged on %+v, want %+v (efficiency peak)", pt, want)
	}
}

func TestAdaptiveReleasesWhenCold(t *testing.T) {
	h := newAdaptiveHarness(t, limitLandscape, 1e9)
	h.settle(12, 400)
	var pt OperatingPoint
	for i := 0; i < 2*releasePolls; i++ {
		pt = h.poll(false, 1)
	}
	if pt.Throttled || pt.FreqScale != 1 {
		t.Fatalf("still engaged after sustained all-Low: %+v", pt)
	}
}

func TestAdaptiveGearSweepNeedsSaturation(t *testing.T) {
	// Same limit peak, but gears now improve efficiency (memory-bound
	// phase: less clock, same bandwidth, less power) and the workload
	// moves 60% of the node's plateau bandwidth.
	capacity := float64(machine.M620().Mem.BandwidthPerSocket) * 2
	eff := func(pt OperatingPoint) float64 {
		base := limitLandscape(OperatingPoint{Throttled: pt.Throttled, Limit: pt.Limit, FreqScale: 1})
		switch pt.FreqScale {
		case 0.9:
			base *= 1.10
		case 0.8:
			base *= 1.05
		case 0.7, 0.6:
			base *= 0.90
		}
		return base
	}
	h := newAdaptiveHarness(t, eff, 0.6*capacity)
	pt := h.settle(20, 600)
	want := OperatingPoint{Throttled: true, Limit: 5, FreqScale: 0.9}
	if pt != want {
		t.Fatalf("converged on %+v, want %+v (gear 0.9 pays, 0.8 does not)", pt, want)
	}
}

func TestAdaptiveResetReentersMonitor(t *testing.T) {
	h := newAdaptiveHarness(t, limitLandscape, 1e9)
	h.poll(true, 1) // engage: mid-climb now
	if !h.pt.Throttled {
		t.Fatalf("hot poll did not engage: %+v", h.pt)
	}
	h.a.reset()
	// A reset means fail-safe fired: the next decision must ask for the
	// released state, and learned climb state must be gone.
	if pt := h.poll(false, 1); pt.Throttled || pt.FreqScale != 1 {
		t.Fatalf("post-reset decision still engaged: %+v", pt)
	}
	// Re-engagement works from scratch.
	if pt := h.poll(true, 1); !pt.Throttled {
		t.Fatalf("monitor did not re-engage after reset: %+v", pt)
	}
}

func TestAdaptivePhaseChangeRestartsClimb(t *testing.T) {
	h := newAdaptiveHarness(t, limitLandscape, 1e9)
	h.settle(12, 400)
	before := h.a.phaseID
	// The workload triples its signature while the operating point holds
	// still: a genuine phase transition the detector must catch, after
	// which the climb restarts (FreqScale back to 1, exploring limits).
	restarted := false
	for i := 0; i < 40; i++ {
		h.poll(true, 3)
		if h.a.phaseID > before {
			restarted = true
			break
		}
	}
	if !restarted {
		t.Fatalf("detector never reported the regime shift (phase still %d)", h.a.phaseID)
	}
	if !h.pt.Throttled || h.pt.FreqScale != 1 {
		t.Fatalf("climb not restarted from seed after phase change: %+v", h.pt)
	}
	// And the controller re-converges for the new phase.
	pt := h.settle(12, 400)
	if !pt.Throttled || pt.Limit != 5 {
		t.Fatalf("did not re-converge after phase change: %+v", pt)
	}
}

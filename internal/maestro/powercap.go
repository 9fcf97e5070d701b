package maestro

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/machine"
	"repro/internal/qthreads"
	"repro/internal/rcr"
	"repro/internal/units"
)

// PowerCap is a feedback controller that keeps node power under a bound
// by adjusting the concurrency-throttle limit — the paper's §V/§VI
// outlook: "concurrency throttling to match parallelism to available
// power would operate well within a multi-node power clamping
// environment" (cf. Rountree et al., reference [25]). Where the Daemon
// *minimizes energy*, PowerCap *respects a budget*: every period it
// compares sampled node power against the cap and tightens or relaxes
// the per-shepherd active-worker limit one step at a time.
type PowerCap struct {
	rt       *qthreads.Runtime
	bb       *rcr.Blackboard
	capBits  atomic.Uint64 // the bound, as math.Float64bits — SetCap retunes it live
	tickerID int

	limit       int // current per-shepherd limit (the machine's stepper only)
	maxLimit    int
	tightenings atomic.Uint64
	relaxations atomic.Uint64
	overBudget  atomic.Uint64 // samples observed above the cap
	samples     atomic.Uint64
	minLimit    atomic.Int64

	met atomic.Pointer[capMetrics]
}

// DefaultCapPeriod is the controller's adjustment interval. It must be
// long enough for a limit change to show up in the power samples before
// the next decision.
const DefaultCapPeriod = 100 * time.Millisecond

// StartPowerCap launches a controller holding node power at or below cap.
// period zero selects DefaultCapPeriod.
func StartPowerCap(rt *qthreads.Runtime, bb *rcr.Blackboard, cap units.Watts, period time.Duration) (*PowerCap, error) {
	if rt == nil || bb == nil {
		return nil, errors.New("maestro: runtime and blackboard are required")
	}
	if cap <= 0 {
		return nil, fmt.Errorf("maestro: power cap %v must be positive", cap)
	}
	if period <= 0 {
		period = DefaultCapPeriod
	}
	pc := &PowerCap{
		rt:       rt,
		bb:       bb,
		maxLimit: rt.Machine().Config().CoresPerSocket,
	}
	pc.met.Store(&capMetrics{})
	pc.capBits.Store(math.Float64bits(float64(cap)))
	pc.limit = pc.maxLimit
	pc.minLimit.Store(int64(pc.maxLimit))
	id, err := rt.Machine().AddTicker(period, pc.poll)
	if err != nil {
		return nil, err
	}
	pc.tickerID = id
	return pc, nil
}

// capMargin is the relax hysteresis band as a fraction of the cap:
// power must fall this far below the bound before the controller widens
// the throttle again, so it does not oscillate at the boundary.
const capMargin = 0.05

// Cap returns the current bound.
func (pc *PowerCap) Cap() units.Watts {
	return units.Watts(math.Float64frombits(pc.capBits.Load()))
}

// SetCap retunes the bound while the controller runs — the seam a
// cluster-level budget partitioner (internal/cluster) uses to push a
// node's share of a global budget down into the node's own enforcement
// loop. Non-positive caps are rejected. The new bound takes effect on
// the next poll; the controller walks the throttle limit toward it one
// step per period exactly as it responds to load changes.
func (pc *PowerCap) SetCap(cap units.Watts) error {
	if cap <= 0 {
		return fmt.Errorf("maestro: power cap %v must be positive", cap)
	}
	pc.capBits.Store(math.Float64bits(float64(cap)))
	pc.met.Load().capW.Set(float64(cap))
	return nil
}

// CapStats describe the controller's activity.
type CapStats struct {
	Samples     uint64
	Tightenings uint64
	Relaxations uint64
	OverBudget  uint64 // samples above the cap
	MinLimit    int    // tightest per-shepherd limit reached
}

// Stats returns a snapshot of the controller counters.
func (pc *PowerCap) Stats() CapStats {
	return CapStats{
		Samples:     pc.samples.Load(),
		Tightenings: pc.tightenings.Load(),
		Relaxations: pc.relaxations.Load(),
		OverBudget:  pc.overBudget.Load(),
		MinLimit:    int(pc.minLimit.Load()),
	}
}

// Stop halts the controller and releases the throttle.
func (pc *PowerCap) Stop() {
	pc.rt.Machine().RemoveTicker(pc.tickerID)
	pc.rt.SetThrottle(false, pc.maxLimit)
}

// poll runs on the machine's stepper each period (machine.TickerFunc): one
// at a time, never beside an owner; it must not block, charge or Stop.
func (pc *PowerCap) poll(_ time.Duration, _ *machine.Snapshot) {
	pc.samples.Add(1)
	met := pc.met.Load()
	met.samples.Inc()
	node := 0.0
	for s := 0; s < pc.bb.Sockets(); s++ {
		m, ok := pc.bb.Socket(s, rcr.MeterPower)
		if !ok {
			met.incomplete.Inc()
			return // no data yet
		}
		node += m.Value
	}
	cap := math.Float64frombits(pc.capBits.Load())
	switch {
	case node > cap:
		pc.overBudget.Add(1)
		met.overBudget.Inc()
		if pc.limit > 1 {
			pc.limit--
			pc.tightenings.Add(1)
			met.tightenings.Inc()
			if int64(pc.limit) < pc.minLimit.Load() {
				pc.minLimit.Store(int64(pc.limit))
			}
		}
		pc.rt.SetThrottle(true, pc.limit)
	case node < cap*(1-capMargin) && pc.limit < pc.maxLimit:
		pc.limit++
		pc.relaxations.Add(1)
		met.relaxations.Inc()
		if pc.limit >= pc.maxLimit {
			pc.rt.SetThrottle(false, pc.maxLimit)
		} else {
			pc.rt.SetThrottle(true, pc.limit)
		}
	}
	met.limit.Set(float64(pc.limit))
}

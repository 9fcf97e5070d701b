package refmodel

import (
	"fmt"
	"math"

	"repro/internal/machine"
	"repro/internal/units"
)

// Audit checks a trajectory against invariants that hold regardless of
// which engine produced it:
//
//   - virtual time is strictly increasing and self-consistent
//     (Now[k] = Now[k-1] + Dt[k]);
//   - energy is conserved: each socket's cumulative energy grows by
//     exactly power × step duration, bit-for-bit, and never decreases;
//   - the RAPL counter moves monotonically modulo its 32-bit wrap, and
//     each step's wrap-aware counter delta matches the step energy to
//     within the quantization remainder;
//   - bandwidth, utilization and outstanding references respect the
//     configured memory-system caps;
//   - temperatures stay finite, at or above ambient, and below the
//     steady state of an over-estimated worst-case power draw;
//   - turbo boost and DVFS scale stay inside their configured ranges;
//   - ticker fires are strictly ordered in time with sane snapshots.
//
// The differential harness runs it on both trajectories before
// comparing them, so a bug that both engines share (and that bit-exact
// comparison therefore cannot see) still fails if it violates physics.
func Audit(sc Scenario, res *Result) error {
	cfg := sc.Cfg
	maxCore := float64(cfg.Power.CoreUnowned)
	for _, w := range []float64{
		float64(cfg.Power.CoreParked), float64(cfg.Power.CoreStall),
		float64(cfg.Power.CoreSpin), float64(cfg.Power.CoreSpinFloor),
		float64(cfg.Power.CoreActive),
	} {
		if w > maxCore {
			maxCore = w
		}
	}
	// Loose worst case: every core at its hottest state, the memory
	// plateau saturated, leakage overestimated by 2x.
	maxPower := (float64(cfg.Power.UncoreBase) + float64(cfg.CoresPerSocket)*maxCore + float64(cfg.Power.BandwidthMax)) * 2
	ambient := float64(cfg.Thermal.Ambient)
	maxTemp := ambient + cfg.Thermal.Resistance*maxPower + 16 // +15 power-on offset, +1 slack
	maxBoost := 1.0
	if cfg.Turbo.Enabled && cfg.Turbo.MaxBoost > 1 {
		maxBoost = cfg.Turbo.MaxBoost
	}
	maxRefs := float64(cfg.CoresPerSocket) * float64(cfg.Mem.MaxRefsPerCore)
	maxBW := float64(cfg.Mem.BandwidthPerSocket) * (1 + 1e-9)

	prevNow := int64(0)
	prevEnergy := make([]float64, cfg.Sockets)
	prevCounter := make([]uint32, cfg.Sockets)
	for s := range prevCounter {
		prevCounter[s] = sc.CounterStart
	}

	for k := range res.Steps {
		rec := &res.Steps[k]
		if rec.Dt <= 0 {
			return fmt.Errorf("step %d: non-positive Dt %v", k, rec.Dt)
		}
		if int64(rec.Now) != prevNow+int64(rec.Dt) {
			return fmt.Errorf("step %d: Now=%v is not previous Now + Dt (%v + %v)", k, rec.Now, prevNow, rec.Dt)
		}
		prevNow = int64(rec.Now)
		if len(rec.Sockets) != cfg.Sockets {
			return fmt.Errorf("step %d: %d sockets recorded, config has %d", k, len(rec.Sockets), cfg.Sockets)
		}
		secs := rec.Dt.Seconds()
		for s := range rec.Sockets {
			ss := &rec.Sockets[s]
			if err := auditSocketStep(ss, maxPower, maxTemp, ambient, maxBoost, maxRefs, maxBW); err != nil {
				return fmt.Errorf("step %d socket %d: %w", k, s, err)
			}
			// Energy conservation, bit-for-bit: both engines accumulate
			// energy += power*secs in this exact expression shape.
			want := prevEnergy[s] + ss.Power*secs
			if math.Float64bits(ss.Energy) != math.Float64bits(want) {
				return fmt.Errorf("step %d socket %d: energy %v is not previous %v + %v*%v = %v",
					k, s, ss.Energy, prevEnergy[s], ss.Power, secs, want)
			}
			if ss.Energy < prevEnergy[s] {
				return fmt.Errorf("step %d socket %d: energy decreased %v -> %v", k, s, prevEnergy[s], ss.Energy)
			}
			// Wrap-aware RAPL delta vs step energy: the sub-unit remainder
			// carry bounds the divergence to under two counts. A counter
			// that ever moved backwards (modulo wrap) shows up here as a
			// near-2^32-count delta.
			delta := float64(units.RAPLCountDelta(prevCounter[s], ss.RAPLCounter))
			counts := (ss.Energy - prevEnergy[s]) / float64(units.RAPLUnit)
			if math.Abs(delta-counts) > 2 {
				return fmt.Errorf("step %d socket %d: RAPL counter moved %v counts, step energy is %v counts",
					k, s, delta, counts)
			}
			prevEnergy[s] = ss.Energy
			prevCounter[s] = ss.RAPLCounter
		}
	}

	for slot, fires := range res.Tickers {
		prev := int64(-1)
		for k, f := range fires {
			if int64(f.Now) <= prev {
				return fmt.Errorf("ticker slot %d fire %d: Now %v not after previous %v", slot, k, f.Now, prev)
			}
			prev = int64(f.Now)
			for s, ss := range f.Sockets {
				if math.IsNaN(ss.Energy) || ss.Energy < 0 || math.IsNaN(ss.Power) ||
					ss.Power <= 0 || math.IsNaN(ss.Temperature) {
					return fmt.Errorf("ticker slot %d fire %d socket %d: insane snapshot %+v", slot, k, s, ss)
				}
			}
		}
	}

	if len(res.Energy) != cfg.Sockets || len(res.Counters) != cfg.Sockets {
		return fmt.Errorf("final state: %d energies / %d counters for %d sockets",
			len(res.Energy), len(res.Counters), cfg.Sockets)
	}
	for s := range res.Energy {
		if math.Float64bits(res.Energy[s]) != math.Float64bits(prevEnergy[s]) {
			return fmt.Errorf("final energy socket %d: %v does not match last step's %v", s, res.Energy[s], prevEnergy[s])
		}
		if res.Counters[s] != prevCounter[s] {
			return fmt.Errorf("final RAPL counter socket %d: %d does not match last step's %d", s, res.Counters[s], prevCounter[s])
		}
	}
	if len(res.TSC) != cfg.Cores() || len(res.Therm) != cfg.Cores() {
		return fmt.Errorf("final state: %d TSCs / %d therm words for %d cores",
			len(res.TSC), len(res.Therm), cfg.Cores())
	}
	return nil
}

func auditSocketStep(ss *machine.SocketStep, maxPower, maxTemp, ambient, maxBoost, maxRefs, maxBW float64) error {
	if math.IsNaN(ss.Power) || ss.Power <= 0 || ss.Power > maxPower {
		return fmt.Errorf("power %v outside (0, %v]", ss.Power, maxPower)
	}
	if math.IsNaN(ss.Temperature) || ss.Temperature < ambient-1e-9 || ss.Temperature > maxTemp {
		return fmt.Errorf("temperature %v outside [%v, %v]", ss.Temperature, ambient, maxTemp)
	}
	if math.IsNaN(ss.Util) || ss.Util < 0 || ss.Util > 1 {
		return fmt.Errorf("bandwidth utilization %v outside [0, 1]", ss.Util)
	}
	if math.IsNaN(ss.Refs) || ss.Refs < 0 || ss.Refs > maxRefs {
		return fmt.Errorf("outstanding refs %v outside [0, %v]", ss.Refs, maxRefs)
	}
	if math.IsNaN(ss.Bandwidth) || ss.Bandwidth < 0 || ss.Bandwidth > maxBW {
		return fmt.Errorf("bandwidth %v outside [0, %v]", ss.Bandwidth, maxBW)
	}
	if math.IsNaN(ss.Boost) || ss.Boost < 1 || ss.Boost > maxBoost {
		return fmt.Errorf("boost %v outside [1, %v]", ss.Boost, maxBoost)
	}
	if math.IsNaN(ss.FreqScale) || ss.FreqScale < machine.MinFrequencyScale || ss.FreqScale > 1 {
		return fmt.Errorf("frequency scale %v outside [%v, 1]", ss.FreqScale, machine.MinFrequencyScale)
	}
	return nil
}

package machine

import "repro/internal/units"

// corePower returns the power draw of one core.
//
//	state          power
//	unowned        CoreUnowned (deep C-state)
//	parked         CoreParked (mwait)
//	spinning       CoreSpinFloor + (CoreSpin−CoreSpinFloor) × duty × g(fs)
//	busy/atomic    CoreStall + (CoreActive−CoreStall) × duty × activeFrac × g(fs)
//
// activeFrac is the fraction of cycles the core retires work rather than
// stalling; for workloads that overlap memory traffic with computation it
// includes the overlap credit (paper §II-C.2: overlapping algorithms need
// more peak power). fs is the socket's DVFS frequency scale; the dynamic
// (above-floor) power scales with g(fs) = f·V(f)² while the static floor
// does not.
func (p *PowerParams) corePower(st coreState, duty, fs, activeFrac float64) units.Watts {
	switch st {
	case coreUnowned:
		return p.CoreUnowned
	case coreIdleWait:
		return p.CoreParked
	case coreSpinWait:
		return p.SpinPower(duty, fs)
	case coreBusy, coreAtomic:
		return p.BusyPower(duty, fs, activeFrac)
	case coreRunning:
		// Host-side execution is instantaneous in virtual time; a core in
		// this state never accumulates energy, but give it a sensible
		// value for instantaneous queries.
		return p.CoreStall
	default:
		return p.CoreUnowned
	}
}

// SpinPower is the draw of a spinning core (see corePower).
func (p PowerParams) SpinPower(duty, fs float64) units.Watts {
	return p.CoreSpinFloor + (p.CoreSpin-p.CoreSpinFloor)*units.Watts(duty*DVFSPowerFactor(fs))
}

// BusyPower is the draw of a busy or atomic core (see corePower), with
// activeFrac clamped to [0, 1].
func (p PowerParams) BusyPower(duty, fs, activeFrac float64) units.Watts {
	if activeFrac < 0 {
		activeFrac = 0
	}
	if activeFrac > 1 {
		activeFrac = 1
	}
	return p.CoreStall + (p.CoreActive-p.CoreStall)*units.Watts(duty*activeFrac*DVFSPowerFactor(fs))
}

// PredictSocketPower computes the steady-state power of one socket from an
// aggregate description of its cores. It exists so that the compiler
// package can invert the power model during workload calibration and so
// tests can cross-check the engine's integration. bwUtilization is in
// [0, 1].
func (p PowerParams) PredictSocketPower(nBusy int, activeFrac float64, nSpin int, spinDuty float64, nParked, nUnowned int, bwUtilization float64) units.Watts {
	w := p.UncoreBase
	w += units.Watts(nBusy) * p.corePower(coreBusy, 1, 1, activeFrac)
	w += units.Watts(nSpin) * p.corePower(coreSpinWait, spinDuty, 1, 0)
	w += units.Watts(nParked) * p.CoreParked
	w += units.Watts(nUnowned) * p.CoreUnowned
	if bwUtilization < 0 {
		bwUtilization = 0
	}
	if bwUtilization > 1 {
		bwUtilization = 1
	}
	w += p.BandwidthMax * units.Watts(bwUtilization)
	return w
}

// ActiveFracForPower inverts PredictSocketPower for the busy-core activity
// fraction: given a target socket power with nBusy busy cores, nParked
// parked cores, nUnowned unowned cores and a bandwidth utilization, it
// returns the activeFrac in [0, 1] that produces the target. Used by the
// workload calibrator to translate the paper's measured watts into an
// instruction-mix parameter. The result is clamped to [0, 1].
func (p PowerParams) ActiveFracForPower(target units.Watts, nBusy, nParked, nUnowned int, bwUtilization float64) float64 {
	if nBusy <= 0 {
		return 0
	}
	base := p.PredictSocketPower(nBusy, 0, 0, 0, nParked, nUnowned, bwUtilization)
	perCore := p.CoreActive - p.CoreStall
	if perCore <= 0 {
		return 0
	}
	f := float64(target-base) / (float64(nBusy) * float64(perCore))
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

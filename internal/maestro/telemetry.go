package maestro

import (
	"repro/internal/telemetry"
)

// daemonMetrics is the throttle daemon's instrument set. All instruments
// are pre-registered at Start so the poll path records through atomics
// only — no lookups, no allocation.
type daemonMetrics struct {
	polls       *telemetry.Counter
	incomplete  *telemetry.Counter // polls aborted on a missing meter
	decHold     *telemetry.Counter
	decEnable   *telemetry.Counter
	decDisable  *telemetry.Counter
	transitions *telemetry.Counter    // actual throttle flips (≤ enable+disable)
	powerLevel  [3]*telemetry.Counter // per-socket classifications by Level
	concLevel   [3]*telemetry.Counter
	engaged     *telemetry.Gauge     // 1 while the mechanism is applied
	duty        *telemetry.Gauge     // fraction of virtual time spent engaged
	staleness   *telemetry.Histogram // age of the oldest meter read, ns

	// Fail-safe / fault-tolerance instruments.
	faultDetected   *telemetry.Counter // stale or missing inputs noticed
	failsafeEntered *telemetry.Counter // fail-safe latch engagements
	recovered       *telemetry.Counter // fail-safe releases after fresh data
	stalePolls      *telemetry.Counter // polls refused on stale/missing data
	missedPolls     *telemetry.Counter // polls swallowed by a busy actuator
	actDelayed      *telemetry.Counter // actuations deferred by the hook
	actDropped      *telemetry.Counter // actuations lost by the hook
	failsafeG       *telemetry.Gauge   // 1 while the fail-safe latch holds

	// Adaptive-policy instruments (static policies never touch them).
	phaseOpChanges *telemetry.Counter // desired operating-point moves
}

func newDaemonMetrics(reg *telemetry.Registry) *daemonMetrics {
	level := func(prefix string) [3]*telemetry.Counter {
		return [3]*telemetry.Counter{
			reg.Counter(prefix + "_low_total"),
			reg.Counter(prefix + "_medium_total"),
			reg.Counter(prefix + "_high_total"),
		}
	}
	return &daemonMetrics{
		polls:       reg.Counter("maestro_polls_total"),
		incomplete:  reg.Counter("maestro_incomplete_reads_total"),
		decHold:     reg.Counter("maestro_decision_hold_total"),
		decEnable:   reg.Counter("maestro_decision_enable_total"),
		decDisable:  reg.Counter("maestro_decision_disable_total"),
		transitions: reg.Counter("maestro_transitions_total"),
		powerLevel:  level("maestro_power_level"),
		concLevel:   level("maestro_conc_level"),
		engaged:     reg.Gauge("maestro_engaged"),
		duty:        reg.Gauge("maestro_throttle_duty"),
		// Meter age at decision time. The sampler refreshes every 10 ms
		// and the daemon polls every 100 ms, so a healthy loop sits in
		// the 0–10 ms buckets; anything beyond one daemon period means
		// the sampler has stalled.
		staleness: reg.Histogram("maestro_staleness_ns",
			1e6, 2.5e6, 5e6, 1e7, 2.5e7, 1e8, 1e9),
		faultDetected:   reg.Counter("maestro_fault_detected_total"),
		failsafeEntered: reg.Counter("maestro_failsafe_entered_total"),
		recovered:       reg.Counter("maestro_recovered_total"),
		stalePolls:      reg.Counter("maestro_stale_polls_total"),
		missedPolls:     reg.Counter("maestro_missed_polls_total"),
		actDelayed:      reg.Counter("maestro_actuation_delayed_total"),
		actDropped:      reg.Counter("maestro_actuation_dropped_total"),
		failsafeG:       reg.Gauge("maestro_failsafe"),
		phaseOpChanges:  reg.Counter("maestro_phase_op_changes_total"),
	}
}

// adaptiveMetrics is the Adaptive policy's instrument set; the rest of
// the maestro_phase_* family (op changes live in daemonMetrics since
// the daemon owns the desired point).
type adaptiveMetrics struct {
	detected *telemetry.Counter // maestro_phase_detected_total
	refits   *telemetry.Counter // maestro_phase_refits_total
	steps    *telemetry.Counter // maestro_phase_explore_steps_total
	phaseG   *telemetry.Gauge   // maestro_phase_current
	lockedG  *telemetry.Gauge   // maestro_phase_locked
}

func newAdaptiveMetrics(reg *telemetry.Registry) *adaptiveMetrics {
	return &adaptiveMetrics{
		detected: reg.Counter("maestro_phase_detected_total"),
		refits:   reg.Counter("maestro_phase_refits_total"),
		steps:    reg.Counter("maestro_phase_explore_steps_total"),
		phaseG:   reg.Gauge("maestro_phase_current"),
		lockedG:  reg.Gauge("maestro_phase_locked"),
	}
}

// capMetrics is the PowerCap controller's instrument set, installed
// atomically by Instrument so it can be attached after StartPowerCap.
// StartPowerCap seeds an empty set, so a loaded set is never nil.
type capMetrics struct {
	samples     *telemetry.Counter
	incomplete  *telemetry.Counter
	tightenings *telemetry.Counter
	relaxations *telemetry.Counter
	overBudget  *telemetry.Counter
	limit       *telemetry.Gauge // current per-shepherd limit
	capW        *telemetry.Gauge // current bound in Watts (SetCap retunes it)
}

// Instrument registers the controller's counters in reg. Safe to call
// while the controller is polling.
func (pc *PowerCap) Instrument(reg *telemetry.Registry) {
	m := &capMetrics{
		samples:     reg.Counter("maestro_powercap_samples_total"),
		incomplete:  reg.Counter("maestro_powercap_incomplete_reads_total"),
		tightenings: reg.Counter("maestro_powercap_tightenings_total"),
		relaxations: reg.Counter("maestro_powercap_relaxations_total"),
		overBudget:  reg.Counter("maestro_powercap_over_budget_total"),
		limit:       reg.Gauge("maestro_powercap_limit"),
		capW:        reg.Gauge("maestro_powercap_watts"),
	}
	m.limit.Set(float64(pc.maxLimit))
	m.capW.Set(float64(pc.Cap()))
	pc.met.Store(m)
}

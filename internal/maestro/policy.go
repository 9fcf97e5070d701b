package maestro

import (
	"time"

	"repro/internal/machine"
	"repro/internal/telemetry"
)

// OperatingPoint is the full actuation state a policy can ask for: the
// paper's concurrency throttle (park workers beyond Limit per shepherd)
// and the DVFS gear, combinable per Cuttlefish. The released state is
// {Throttled: false, FreqScale: 1}.
type OperatingPoint struct {
	// Throttled parks workers beyond Limit on every shepherd.
	Throttled bool
	// Limit is the per-shepherd active-worker bound while Throttled.
	// The daemon clamps it to [1, cores-per-socket].
	Limit int
	// FreqScale is the socket-wide DVFS gear in (0, 1]; 1 is full
	// clock. The daemon treats out-of-range or NaN as 1.
	FreqScale float64
}

// PolicyInput is one healthy poll's view of the machine, handed to a
// Decider. The slices alias the daemon's per-poll scratch buffers: they
// are valid only for the duration of the Decide call and must not be
// retained or mutated.
type PolicyInput struct {
	// Now is the virtual timestamp of the poll.
	Now time.Duration
	// Power (W), Conc (outstanding memory references) and Membw
	// (bytes/s) are the per-socket blackboard readings.
	Power, Conc, Membw []float64
	// PowerLv and ConcLv are the per-socket High/Med/Low
	// classifications (Level values) against the daemon's thresholds.
	PowerLv, ConcLv []int8
	// Current is the operating point the daemon currently desires.
	Current OperatingPoint
	// Staleness is the age of the oldest reading behind this poll. It
	// is always within the daemon's horizon — stale polls never reach
	// a Decider.
	Staleness time.Duration
}

// Decider is the policy seam behind Config.Policy: the daemon consults
// it once per healthy poll and actuates whatever point it returns
// (clamped to hardware bounds). Implementations run on the machine's
// stepper inside the poll (machine.TickerFunc) — one at a time, never
// beside an owner — and must not block or touch the machine directly.
//
// The daemon keeps the safety machinery for every Decider: the
// staleness watchdog and fail-safe latch gate the polls (a Decider
// never sees data older than the horizon, and fail-safe releases the
// machine without asking it), and desired-vs-applied reconciliation
// retries dropped or delayed actuations on the absolute k×Period grid.
//
// A Decider may additionally implement interface{ Phase() int } to
// expose its current phase id in the decision journal.
type Decider interface {
	// Name identifies the policy in logs.
	Name() string
	// Decide maps one poll's readings to the desired operating point.
	Decide(in PolicyInput) OperatingPoint
	// Reset is called when the daemon enters fail-safe: the sensors
	// went dark, the machine has been released, and any state learned
	// from recent readings should be discarded.
	Reset(now time.Duration)
}

// PolicyEnv is what a DeciderFactory gets to build a Decider from: the
// calibrated machine description plus the daemon's resolved config.
type PolicyEnv struct {
	// Machine is the full calibrated machine config (socket/core
	// topology, the memory-concurrency knee, power model).
	Machine machine.Config
	// Thresholds are the daemon's resolved classification boundaries.
	Thresholds Thresholds
	// Period is the daemon poll period.
	Period time.Duration
	// ThrottleLimit and FrequencyGear are the static policies'
	// operating point, a sensible anchor for exploration.
	ThrottleLimit int
	FrequencyGear float64
	// Telemetry and Journal are the daemon's sinks (either may be
	// nil). Policy-specific instruments and journal kinds go here.
	Telemetry *telemetry.Registry
	Journal   *telemetry.Journal
}

// DeciderFactory builds a Decider for a daemon at Start time.
type DeciderFactory func(env PolicyEnv) (Decider, error)

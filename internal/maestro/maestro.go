// Package maestro implements the paper's automatic dynamic concurrency
// throttling (§IV): a user-level daemon wakes every 0.1 s of (virtual)
// time, reads socket power and memory concurrency from the RCR
// blackboard, classifies each as High, Medium or Low against calibrated
// thresholds, and toggles the runtime's throttle flag:
//
//   - both metrics High on some socket  → activate throttling
//   - both metrics Low on every socket  → deactivate throttling
//   - anything in the Medium band       → hold (hysteresis guard)
//
// When throttling is active, the qthreads scheduler parks workers beyond
// a shepherd-local limit in a duty-cycle-throttled spin loop; see
// package qthreads.
//
// A staleness watchdog gates every poll: inputs older than three poll
// periods put the daemon in fail-safe (throttle released, classification
// suspended) until two consecutive fresh polls. Both numbers are fixed;
// only the period is configurable.
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
	"repro/internal/telemetry"
	"repro/internal/units"
)

// Level is a classified metric reading.
type Level int

// Classification levels.
const (
	Low Level = iota
	Medium
	High
)

// Classify buckets a value against a low and high threshold: Low on the
// closed interval (-inf, low], High on the closed interval [high, +inf),
// Medium strictly between. The Medium band is the hysteresis guard of
// §IV-A: it neither engages nor releases throttling, avoiding
// oscillation when a metric hovers near a threshold.
//
// Boundary semantics are deliberate and fail toward *not* throttling:
// the Low test wins over the High test, so the degenerate low == high
// config (which Thresholds.Validate rejects, but Classify must still be
// total for callers with their own validation) classifies the shared
// boundary value Low rather than High — the band collapses toward
// release, never toward engagement. NaN never classifies High or Low:
// all its comparisons are false, so it lands in Medium and holds the
// current state rather than acting on garbage.
func Classify(v, low, high float64) Level {
	switch {
	case v <= low:
		return Low
	case v >= high:
		return High
	default:
		return Medium
	}
}

// Thresholds hold the per-socket classification boundaries.
type Thresholds struct {
	// Power boundaries per socket. The paper picks 75 W per socket as
	// High (few applications exceed 150 W node-wide for their entire
	// execution) and 50 W as Low (almost all applications exceed 100 W
	// node-wide while running). Our power model's socket figures run
	// about 10 W below the paper's machine at equivalent load, so the
	// calibrated defaults are 65/45 — chosen, like the paper's, so that
	// exactly the poorly-scaling high-power programs (lulesh, dijkstra,
	// health, strassen) classify High and the well-scaling ones do not.
	HighPower, LowPower units.Watts
	// Memory-concurrency boundaries in outstanding references. The paper
	// sets High at 75% and Low at 25% of the socket's effective maximum
	// (the knee of Mandel et al.'s model).
	HighConcurrency, LowConcurrency float64
}

// DefaultThresholds derives the paper-equivalent thresholds for a machine
// configuration.
func DefaultThresholds(mem machine.MemParams) Thresholds {
	knee := float64(mem.KneeRefs)
	return Thresholds{
		HighPower:       65,
		LowPower:        45,
		HighConcurrency: 0.75 * knee,
		LowConcurrency:  0.25 * knee,
	}
}

// Validate reports the first problem with the thresholds: inverted or
// degenerate (low >= high) bands, non-positive power bounds, and NaN
// anywhere. NaN needs an explicit check because every comparison
// against it is false — a NaN threshold would otherwise sail through
// the ordering checks and silently disable a classification band.
func (th Thresholds) Validate() error {
	for _, v := range [...]float64{
		float64(th.LowPower), float64(th.HighPower),
		th.LowConcurrency, th.HighConcurrency,
	} {
		if math.IsNaN(v) {
			return fmt.Errorf("maestro: thresholds %+v contain NaN", th)
		}
	}
	if th.LowPower <= 0 || th.HighPower <= th.LowPower {
		return fmt.Errorf("maestro: power thresholds %v/%v must satisfy 0 < low < high", th.LowPower, th.HighPower)
	}
	if th.LowConcurrency < 0 || th.HighConcurrency <= th.LowConcurrency {
		return fmt.Errorf("maestro: concurrency thresholds %g/%g must satisfy 0 <= low < high", th.LowConcurrency, th.HighConcurrency)
	}
	return nil
}

// Decision is the dual-condition rule's verdict on one poll.
type Decision int

// Decisions.
const (
	Hold Decision = iota
	Enable
	Disable
)

// decide is the dual-condition rule (§IV-A), the one place it is
// written. It classifies each socket's power and memory concurrency,
// appending the levels to powerLv and concLv, and returns Enable if some
// socket has both High, Disable if every socket has both Low, and Hold
// otherwise. Readings that do not pair up, or none at all, Hold.
func (th Thresholds) decide(power, conc []float64, powerLv, concLv []int8) (Decision, []int8, []int8) {
	if len(power) == 0 || len(power) != len(conc) {
		return Hold, powerLv, concLv
	}
	hot, cold := false, true
	for i := range power {
		p := Classify(power[i], float64(th.LowPower), float64(th.HighPower))
		c := Classify(conc[i], th.LowConcurrency, th.HighConcurrency)
		powerLv, concLv = append(powerLv, int8(p)), append(concLv, int8(c))
		hot = hot || p == High && c == High
		cold = cold && p == Low && c == Low
	}
	switch {
	case hot:
		return Enable, powerLv, concLv
	case cold:
		return Disable, powerLv, concLv
	}
	return Hold, powerLv, concLv
}

// Mechanism selects how the daemon reduces power when its policy says
// High.
type Mechanism int

// Mechanisms.
const (
	// ThrottleConcurrency parks surplus workers in duty-cycle-throttled
	// spin loops — the paper's mechanism: per-core and fast.
	ThrottleConcurrency Mechanism = iota
	// ScaleFrequency lowers the whole socket's clock instead (DVFS), the
	// mechanism most prior work uses. The paper argues against it (§IV:
	// it affects all cores and transitions are slow); it is implemented
	// here so the two can be compared (experiments.MechanismAblation).
	ScaleFrequency
)

// Policy selects which metrics gate the mechanism.
type Policy int

// Policies.
const (
	// DualCondition requires both power and memory concurrency High —
	// the paper's policy (§IV-A).
	DualCondition Policy = iota
	// PowerOnly gates on power alone. The paper rejects it: "it often
	// limits thread count for programs running at high efficiency and
	// increased overall energy consumption". Kept for the ablation.
	PowerOnly
	// Adaptive goes beyond the static classifier: an online phase
	// detector plus a per-phase hill-climbed speedup/power model picks
	// the energy-optimal operating point (thread count × DVFS gear) per
	// workload phase, engaging and releasing on the dual-condition
	// rule's verdict. See adaptive.go and DESIGN.md §Adaptive.
	Adaptive
)

// Config tunes the daemon.
type Config struct {
	// Period between polls; the paper uses 0.1 s, chosen to let energy
	// counter fluctuations dissipate, and notes it is adjustable to trade
	// overhead against responsiveness.
	Period time.Duration
	// Thresholds for classification. Zero value selects
	// DefaultThresholds for the runtime's machine.
	Thresholds Thresholds
	// ThrottleLimit is the shepherd-local active-worker limit applied
	// while throttled. Zero selects 3/4 of the cores per socket (12 of
	// 16 on the paper's machine, matching its 12-thread comparisons).
	ThrottleLimit int
	// Mechanism selects concurrency throttling (default, the paper's
	// choice) or socket-wide frequency scaling.
	Mechanism Mechanism
	// Policy selects the gating condition (default: the paper's dual
	// condition). Adaptive hands every healthy poll to the adaptive
	// controller; the staleness watchdog, fail-safe latch and actuation
	// reconciliation stay daemon-owned under every policy.
	Policy Policy
	// FrequencyGear is the DVFS scale applied while ScaleFrequency is
	// engaged; zero selects 0.6.
	FrequencyGear float64
	// ActuationHook, when non-nil, intercepts mechanism actuation: it
	// may return a delay to defer the actuation by (the daemon's control
	// thread is busy for that long and misses overlapped polls, though
	// its cadence stays on the absolute Period grid) and drop=true to
	// lose the actuation entirely. The daemon treats actuation as
	// desired-state reconciliation — a dropped or delayed actuation is
	// retried every poll until the applied state matches the desired
	// one — so this is a fault-injection seam (internal/faults), not a
	// correctness risk. Fail-safe releases bypass it: they flip the
	// runtime's lock-free throttle flag directly.
	ActuationHook func(now time.Duration, engage bool) (delay time.Duration, drop bool)
	// Telemetry, when non-nil, receives the daemon's maestro_* counters,
	// gauges and staleness histogram (see docs/observability.md for the
	// catalog). The poll path records through pre-registered instruments
	// only, so enabling telemetry adds no allocation.
	Telemetry *telemetry.Registry
	// Journal, when non-nil, receives one telemetry.Decision per poll —
	// the full classification trace (inputs, levels, thresholds,
	// outcome) behind every throttle flip.
	Journal *telemetry.Journal
}

// DefaultPeriod is the paper's daemon wake interval.
const DefaultPeriod = 100 * time.Millisecond

// The staleness watchdog. When any input meter behind a decision is
// older than horizonPeriods × Period (or missing), the daemon refuses to
// classify, releases any active throttle, and enters fail-safe until the
// sensors look healthy again — it never leaves threads parked on the
// word of a dead or frozen sampler. It leaves fail-safe after
// recoveryPolls consecutive fresh polls (debounce against a sampler that
// flaps).
const (
	horizonPeriods = 3
	recoveryPolls  = 2
)

// OperatingPoint is the full actuation state a policy can ask for: the
// paper's concurrency throttle (park workers beyond Limit per shepherd)
// and the DVFS gear, combinable per Cuttlefish. The released state is
// {Throttled: false, FreqScale: 1}.
type OperatingPoint struct {
	// Throttled parks workers beyond Limit on every shepherd.
	Throttled bool
	// Limit is the per-shepherd active-worker bound while Throttled.
	Limit int
	// FreqScale is the socket-wide DVFS gear in (0, 1]; 1 is full
	// clock.
	FreqScale float64
}

// Daemon is a running throttling controller. Create with Start; it polls
// until Stop.
type Daemon struct {
	rt       *qthreads.Runtime
	bb       *rcr.Blackboard
	cfg      Config
	tickerID int

	// Engine-goroutine control state (poll and firePending callbacks
	// only). desired is the operating point the policy wants; applied
	// is what has actually been actuated — they diverge while an
	// actuation is delayed or after one is dropped, and every poll
	// reconciles applied toward desired. engaged caches
	// desired != fullPoint (the "is any mechanism active" view the
	// stats, metrics and journal expose).
	desired OperatingPoint
	applied OperatingPoint
	engaged bool
	// fullPoint is the released state: throttle off at the configured
	// limit, full clock. engagedPoint is the static policies' single
	// throttled state (the Adaptive policy picks its own points).
	fullPoint    OperatingPoint
	engagedPoint OperatingPoint
	// adaptive is the Adaptive policy's controller (nil for the static
	// policies).
	adaptive *adaptive
	// failsafe is the watchdog latch: while set, classification is
	// suspended and the throttle is released. freshPolls counts
	// consecutive healthy polls toward recovery.
	failsafe   bool
	freshPolls int
	// horizon is the staleness bound, horizonPeriods × Period.
	horizon time.Duration
	// busyUntil marks the end of an in-flight delayed actuation; polls
	// landing inside the window are missed (the control thread is busy),
	// but the ticker keeps the absolute-deadline grid, so cadence holds.
	busyUntil time.Duration
	// pendingID tracks the one-shot ticker of a delayed actuation (-1
	// when none). The pending actuation carries no payload: when it
	// fires it applies whatever is desired *then*, so a policy that
	// moves while an actuation is in flight is never overwritten by a
	// stale snapshot (see reconcile).
	pendingID int

	failsafeA       atomic.Bool
	stopped         atomic.Bool
	faultsSeen      atomic.Uint64
	failsafeEntries atomic.Uint64
	recoveries      atomic.Uint64
	missedPolls     atomic.Uint64

	// met and journal are fixed at Start. The scratch slices below are
	// reused every poll (the machine's stepper only) so classification and
	// journaling never allocate on the hot path.
	met     *daemonMetrics
	journal *telemetry.Journal
	power   []float64
	conc    []float64
	membw   []float64
	powerLv []int8
	concLv  []int8

	activations   atomic.Uint64
	deactivations atomic.Uint64
	opChanges     atomic.Uint64
	samples       atomic.Uint64
	throttledTime atomic.Int64 // ns spent with throttling active
	lastSample    atomic.Int64 // ns timestamp of previous sample
}

// Start launches the daemon on the runtime's machine.
func Start(rt *qthreads.Runtime, bb *rcr.Blackboard, cfg Config) (*Daemon, error) {
	if rt == nil || bb == nil {
		return nil, errors.New("maestro: runtime and blackboard are required")
	}
	mcfg := rt.Machine().Config()
	if cfg.Period <= 0 {
		cfg.Period = DefaultPeriod
	}
	if (cfg.Thresholds == Thresholds{}) {
		cfg.Thresholds = DefaultThresholds(mcfg.Mem)
	}
	if err := cfg.Thresholds.Validate(); err != nil {
		return nil, err
	}
	if cfg.ThrottleLimit <= 0 {
		cfg.ThrottleLimit = mcfg.CoresPerSocket * 3 / 4
		if cfg.ThrottleLimit < 1 {
			cfg.ThrottleLimit = 1
		}
	}
	if cfg.FrequencyGear <= 0 || cfg.FrequencyGear > 1 {
		cfg.FrequencyGear = 0.6
	}
	d := &Daemon{rt: rt, bb: bb, cfg: cfg, journal: cfg.Journal, pendingID: -1, horizon: horizonPeriods * cfg.Period}
	d.fullPoint = OperatingPoint{Throttled: false, Limit: cfg.ThrottleLimit, FreqScale: 1}
	if cfg.Mechanism == ScaleFrequency {
		d.engagedPoint = OperatingPoint{Throttled: false, Limit: cfg.ThrottleLimit, FreqScale: cfg.FrequencyGear}
	} else {
		d.engagedPoint = OperatingPoint{Throttled: true, Limit: cfg.ThrottleLimit, FreqScale: 1}
	}
	d.desired, d.applied = d.fullPoint, d.fullPoint
	if cfg.Policy == Adaptive {
		d.adaptive = newAdaptive(mcfg, cfg.ThrottleLimit, cfg.Telemetry, cfg.Journal)
	}
	d.met = newDaemonMetrics(cfg.Telemetry)
	nSock := bb.Sockets()
	d.power = make([]float64, 0, nSock)
	d.conc = make([]float64, 0, nSock)
	d.membw = make([]float64, 0, nSock)
	d.powerLv = make([]int8, 0, nSock)
	d.concLv = make([]int8, 0, nSock)
	id, err := rt.Machine().AddTicker(cfg.Period, d.poll)
	if err != nil {
		return nil, err
	}
	d.tickerID = id
	return d, nil
}

// Stop halts the daemon and releases any active throttle or frequency
// reduction. A delayed actuation still in flight is neutralized: its
// one-shot callback observes the stopped flag and applies nothing.
func (d *Daemon) Stop() {
	d.stopped.Store(true)
	d.rt.Machine().RemoveTicker(d.tickerID)
	d.rt.SetThrottle(false, d.cfg.ThrottleLimit)
	// adaptive is written once before Start returns, so this read is
	// safe from the stopping goroutine. The Adaptive policy may have
	// engaged either mechanism, so both are released.
	if d.cfg.Mechanism == ScaleFrequency || d.adaptive != nil {
		d.setFrequency(1)
	}
}

// Stats describe the daemon's activity so far.
type Stats struct {
	Samples       uint64
	Activations   uint64
	Deactivations uint64
	// OpChanges counts every desired operating-point move the Adaptive
	// policy made, including retunes between two throttled points that
	// the activation/deactivation counters cannot see.
	OpChanges     uint64
	ThrottledTime time.Duration
	// Fail-safe accounting: sensor faults observed, fail-safe windows
	// entered, recoveries back to normal operation, polls missed while
	// an actuation stalled the control thread, and whether fail-safe is
	// active right now.
	FaultsSeen      uint64
	FailsafeEntries uint64
	Recoveries      uint64
	MissedPolls     uint64
	Failsafe        bool
}

// Stats returns a snapshot of the daemon counters.
func (d *Daemon) Stats() Stats {
	return Stats{
		Samples:         d.samples.Load(),
		Activations:     d.activations.Load(),
		Deactivations:   d.deactivations.Load(),
		OpChanges:       d.opChanges.Load(),
		ThrottledTime:   time.Duration(d.throttledTime.Load()),
		FaultsSeen:      d.faultsSeen.Load(),
		FailsafeEntries: d.failsafeEntries.Load(),
		Recoveries:      d.recoveries.Load(),
		MissedPolls:     d.missedPolls.Load(),
		Failsafe:        d.failsafeA.Load(),
	}
}

// Failsafe reports whether the staleness watchdog currently holds the
// daemon in fail-safe (throttle released, classification suspended).
func (d *Daemon) Failsafe() bool { return d.failsafeA.Load() }

// Horizon returns the staleness bound of the watchdog, horizonPeriods ×
// Period. faults.RunChaos, its only caller, counts the journal's
// decisions on data older than this. The field is set once at Start and
// never written again, so the read is safe from any goroutine.
func (d *Daemon) Horizon() time.Duration { return d.horizon }

// poll runs on the machine's stepper every Period (machine.TickerFunc):
// one at a time, never beside an owner; it must not block, charge or
// Stop. It reads the blackboard (never the machine) and flips the
// runtime's throttle flag through atomics only.
//
// The machine re-arms tickers against absolute deadlines (next += period,
// never now + period), so however long a poll or an injected actuation
// delay takes, the daemon's cadence stays on the k×Period grid — polls
// overlapping a busy window are missed, not shifted.
func (d *Daemon) poll(now time.Duration, _ *machine.Snapshot) {
	if d.stopped.Load() {
		return
	}
	d.samples.Add(1)
	met := d.met
	met.polls.Inc()
	if prev := d.lastSample.Swap(int64(now)); prev != 0 && d.engaged {
		d.throttledTime.Add(int64(now) - prev)
	}
	if now < d.busyUntil {
		// The control thread is still inside a delayed actuation.
		d.missedPolls.Add(1)
		met.missedPolls.Inc()
		return
	}
	// Per-socket reads are lock-free seqlock loads: the poll never
	// contends with the sampler's writes, so classification latency is
	// independent of write traffic.
	nSock := d.bb.Sockets()
	d.power, d.conc = d.power[:0], d.conc[:0]
	staleness := time.Duration(0)
	missing := false
	for s := 0; s < nSock; s++ {
		p, okP := d.bb.Socket(s, rcr.MeterPower)
		c, okC := d.bb.Socket(s, rcr.MeterMemConcurrency)
		if !okP || !okC {
			met.incomplete.Inc()
			missing = true
			break
		}
		if age := now - p.Updated; age > staleness {
			staleness = age
		}
		if age := now - c.Updated; age > staleness {
			staleness = age
		}
		d.power = append(d.power, p.Value)
		if d.cfg.Policy == PowerOnly {
			// Power-only ablation: pretend concurrency is always High so
			// only the power classification gates the decision.
			d.conc = append(d.conc, d.cfg.Thresholds.HighConcurrency)
		} else {
			d.conc = append(d.conc, c.Value)
		}
	}
	if missing || staleness > d.horizon {
		// Watchdog: the sensors are dead, frozen or lagging beyond the
		// horizon. Never classify — and never stay throttled — on their
		// word.
		d.noteFault(now, staleness, missing)
		return
	}
	if d.failsafe {
		d.freshPolls++
		if d.freshPolls < recoveryPolls {
			return // still debouncing; keep fail-safe
		}
		d.failsafe = false
		d.failsafeA.Store(false)
		d.recoveries.Add(1)
		met.recovered.Inc()
		met.failsafeG.Set(0)
		d.recordEvent(now, telemetry.KindRecovered, "fresh", staleness)
		// This poll's data is fresh; fall through and classify it.
	}
	// The rule's levels feed the counters and the journal; its verdict
	// moves the static policies' point, or the adaptive controller.
	th := d.cfg.Thresholds
	var verdict Decision
	verdict, d.powerLv, d.concLv = th.decide(d.power, d.conc, d.powerLv[:0], d.concLv[:0])
	if d.adaptive != nil || d.journal != nil {
		d.membw = d.membw[:0]
		for s := 0; s < nSock; s++ {
			bw, _ := d.bb.Socket(s, rcr.MeterMemBandwidth)
			d.membw = append(d.membw, bw.Value)
		}
	}
	outcome := "hold" // hysteresis band: leave the mechanism as-is
	switch {
	case d.adaptive != nil:
		outcome = d.stepAdaptive(now, verdict, staleness)
	case verdict == Enable:
		outcome = "enable"
		d.setDesired(now, d.engagedPoint, staleness)
	case verdict == Disable:
		outcome = "disable"
		d.setDesired(now, d.fullPoint, staleness)
	}
	d.reconcile(now)
	for i := range d.powerLv {
		met.powerLevel[d.powerLv[i]].Inc()
		met.concLevel[d.concLv[i]].Inc()
	}
	switch outcome {
	case "hold":
		met.decHold.Inc()
	case "enable":
		met.decEnable.Inc()
	case "disable":
		met.decDisable.Inc()
	}
	if d.engaged {
		met.engaged.Set(1)
	} else {
		met.engaged.Set(0)
	}
	if now > 0 {
		met.duty.Set(float64(d.throttledTime.Load()) / float64(now))
	}
	met.staleness.Observe(float64(staleness))
	if d.journal != nil {
		d.journal.Record(telemetry.Decision{
			T:       now,
			Power:   d.power,
			Conc:    d.conc,
			Membw:   d.membw,
			PowerLv: d.powerLv,
			ConcLv:  d.concLv,
			Thresholds: [4]float64{
				float64(th.LowPower), float64(th.HighPower),
				th.LowConcurrency, th.HighConcurrency,
			},
			Outcome:   outcome,
			Engaged:   d.engaged,
			Limit:     d.desired.Limit,
			Freq:      d.desired.FreqScale,
			Phase:     d.phase(),
			Staleness: staleness,
		})
	}
}

// setDesired records a new desired operating point, maintaining the
// engaged view and, under the Adaptive policy, the op-change count and
// the operating_point_changed journal trail. Static policies move only
// between fullPoint and engagedPoint, which the activation and
// deactivation counters already tell apart.
func (d *Daemon) setDesired(now time.Duration, pt OperatingPoint, staleness time.Duration) {
	if pt == d.desired {
		return
	}
	d.desired = pt
	eng := pt != d.fullPoint
	if eng != d.engaged {
		d.engaged = eng
		if eng {
			d.activations.Add(1)
		} else {
			d.deactivations.Add(1)
		}
		d.met.transitions.Inc()
	}
	if d.adaptive == nil {
		return
	}
	d.opChanges.Add(1)
	d.met.phaseOpChanges.Inc()
	if d.journal != nil {
		d.journal.Record(telemetry.Decision{
			T:         now,
			Kind:      telemetry.KindOperatingPointChanged,
			Engaged:   d.engaged,
			Limit:     pt.Limit,
			Freq:      pt.FreqScale,
			Phase:     d.phase(),
			Staleness: staleness,
		})
	}
}

// stepAdaptive hands one healthy poll to the adaptive controller and
// makes the point it asks for the desired one. The daemon still owns
// the engaged bookkeeping and actuation; the controller only picks the
// point.
func (d *Daemon) stepAdaptive(now time.Duration, verdict Decision, staleness time.Duration) string {
	pt := d.adaptive.step(PolicyInput{
		Now:       now,
		Power:     d.power,
		Conc:      d.conc,
		Membw:     d.membw,
		Verdict:   verdict,
		Staleness: staleness,
	})
	outcome := "retune" // a move between two throttled points
	switch {
	case pt == d.desired:
		outcome = "hold"
	case pt == d.fullPoint:
		outcome = "disable"
	case d.desired == d.fullPoint:
		outcome = "enable"
	}
	d.setDesired(now, pt, staleness)
	return outcome
}

// phase is the adaptive controller's current phase id (0 for the static
// policies).
func (d *Daemon) phase() int {
	if d.adaptive != nil {
		return d.adaptive.phaseID
	}
	return 0
}

// noteFault handles a poll whose inputs are missing or older than the
// staleness horizon: record the fault, enter fail-safe (releasing any
// active throttle immediately and directly — the release is a lock-free
// flag flip that no injected actuation fault can lose), and keep
// re-asserting the release while the outage lasts.
func (d *Daemon) noteFault(now, staleness time.Duration, missing bool) {
	d.faultsSeen.Add(1)
	d.freshPolls = 0
	met := d.met
	met.faultDetected.Inc()
	met.stalePolls.Inc()
	detail := "stale"
	if missing {
		detail = "missing"
	}
	if !d.failsafe {
		d.recordEvent(now, telemetry.KindFaultDetected, detail, staleness)
		d.failsafe = true
		d.failsafeA.Store(true)
		d.failsafeEntries.Add(1)
		met.failsafeEntered.Inc()
		met.failsafeG.Set(1)
		d.desired = d.fullPoint
		if d.engaged {
			d.engaged = false
			d.deactivations.Add(1)
			met.transitions.Inc()
		}
		d.cancelPending()
		d.forceRelease()
		if d.adaptive != nil {
			// The controller's model was fed by the sensors that just
			// went dark; whatever it learned during the outage window is
			// not trustworthy. Reset so recovery restarts exploration from
			// scratch rather than resuming a possibly-poisoned climb.
			d.adaptive.reset()
		}
		d.recordEvent(now, telemetry.KindFailsafeEntered, detail, staleness)
		return
	}
	// Already in fail-safe: keep asserting the release in case a
	// concurrent fault path flipped the mechanism back.
	if d.applied != d.fullPoint {
		d.forceRelease()
	}
}

// recordEvent journals one fail-safe transition record.
func (d *Daemon) recordEvent(now time.Duration, kind, detail string, staleness time.Duration) {
	if d.journal == nil {
		return
	}
	d.journal.Record(telemetry.Decision{
		T:         now,
		Kind:      kind,
		Detail:    detail,
		Engaged:   d.engaged,
		Limit:     d.cfg.ThrottleLimit,
		Staleness: staleness,
	})
}

// reconcile drives the applied operating point toward the desired one.
// With no ActuationHook this is a direct call; with one, the actuation
// may be deferred (a one-shot ticker applies it later while overlapped
// polls are missed) or dropped (nothing happens now — the next poll
// finds applied != desired and retries).
func (d *Daemon) reconcile(now time.Duration) {
	if d.pendingID >= 0 {
		// An actuation is already in flight. It carries no payload —
		// firePending applies whatever is desired when it fires — so a
		// desired-state change needs no new hook invocation here.
		// Cancelling and re-issuing instead would invoke the hook a
		// second time and re-anchor the busy window at this decision's
		// timestamp (busyUntil = now + delay), dragging subsequent
		// actuations off the absolute k×Period grid every time a policy
		// moved mid-flight.
		return
	}
	if d.applied == d.desired {
		return
	}
	engage := d.desired != d.fullPoint
	if h := d.cfg.ActuationHook; h != nil {
		delay, drop := h(now, engage)
		if drop {
			d.met.actDropped.Inc()
			return
		}
		if delay > 0 {
			d.met.actDelayed.Inc()
			d.busyUntil = now + delay
			if id, err := d.rt.Machine().AddTicker(delay, d.firePending); err == nil {
				d.pendingID = id
			}
			return
		}
	}
	d.applyNow(d.desired)
}

// firePending is the one-shot completion of a delayed actuation. It runs
// on the machine's stepper, like poll and never beside it, so no extra
// synchronization is needed.
func (d *Daemon) firePending(time.Duration, *machine.Snapshot) {
	// Make the periodic ticker one-shot before anything else; removing a
	// ticker from inside its own callback is supported.
	d.rt.Machine().RemoveTicker(d.pendingID)
	d.pendingID = -1
	if d.stopped.Load() {
		return
	}
	// Apply the operating point desired *now*, not the one desired when
	// the delay began: if the policy moved while the actuation was in
	// flight, a stale captured point must not overwrite the newer
	// decision.
	d.applyNow(d.desired)
}

// cancelPending discards an in-flight delayed actuation and its busy
// window — a cancelled actuation no longer occupies the control thread,
// so a stale window must not keep eating subsequent polls.
func (d *Daemon) cancelPending() {
	if d.pendingID >= 0 {
		d.rt.Machine().RemoveTicker(d.pendingID)
		d.pendingID = -1
	}
	d.busyUntil = 0
}

// applyNow actuates an operating point immediately, touching only the
// mechanisms that changed: a concurrency-only policy never issues a
// DVFS request and a DVFS-only policy never flips the throttle flag.
func (d *Daemon) applyNow(pt OperatingPoint) {
	prev := d.applied
	d.applied = pt
	if pt.Throttled != prev.Throttled || (pt.Throttled && pt.Limit != prev.Limit) {
		d.rt.SetThrottle(pt.Throttled, pt.Limit)
	}
	if pt.FreqScale != prev.FreqScale {
		d.setFrequency(pt.FreqScale)
	}
}

// forceRelease unconditionally re-asserts the released state through
// the mechanism the active policy can have engaged, bypassing the
// change-detection in applyNow — the fail-safe path must work even if
// some fault desynchronized the bookkeeping from the hardware.
func (d *Daemon) forceRelease() {
	d.applied = d.fullPoint
	switch {
	case d.adaptive != nil:
		d.rt.SetThrottle(false, d.cfg.ThrottleLimit)
		d.setFrequency(1)
	case d.cfg.Mechanism == ScaleFrequency:
		d.setFrequency(1)
	default:
		d.rt.SetThrottle(false, d.cfg.ThrottleLimit)
	}
}

// setFrequency requests the gear on every socket.
func (d *Daemon) setFrequency(scale float64) {
	m := d.rt.Machine()
	for s := 0; s < m.Config().Sockets; s++ {
		if err := m.RequestFrequencyScale(s, scale); err != nil {
			// Socket indices come from the machine's own config; a
			// failure here is a programming error.
			panic(err)
		}
	}
}

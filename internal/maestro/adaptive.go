package maestro

import (
	"time"

	"repro/internal/machine"
	"repro/internal/maestro/phase"
	"repro/internal/telemetry"
)

// PolicyInput is one healthy poll's view of the machine, handed to the
// adaptive controller. The slices alias the daemon's per-poll scratch
// buffers: they are valid only for the duration of the call.
type PolicyInput struct {
	// Now is the virtual timestamp of the poll.
	Now time.Duration
	// Power (W), Conc (outstanding memory references) and Membw
	// (bytes/s) are the per-socket blackboard readings.
	Power, Conc, Membw []float64
	// Verdict is the dual-condition rule's reading of the poll
	// (Thresholds.decide): Enable — some socket High on power and
	// concurrency — is the engagement gate, Disable — every socket Low
	// on both — the release condition.
	Verdict Decision
	// Staleness is the age of the oldest reading behind this poll. It
	// is always within the daemon's horizon — stale polls never reach
	// the controller.
	Staleness time.Duration
}

// The Adaptive policy goes beyond the paper's static High/Med/Low gate
// (ROADMAP items 3(c) and 10, after Conoci et al. and Cuttlefish): it
// segments the telemetry stream into workload phases with a change-point
// detector (package phase) and, for each memory-bound phase, hill-climbs
// a per-phase efficiency model over thread count × DVFS gear to find the
// energy-optimal operating point instead of always jumping to the one
// configured ThrottleLimit.
//
// The controller is a three-mode state machine, driven once per daemon
// poll with fresh data only (the daemon's staleness watchdog and
// fail-safe gate every input):
//
//	monitor  — machine released. The dual-condition rule's verdict
//	           (any socket High power AND High concurrency) is the
//	           engagement gate, so well-scaling apps are never touched
//	           and the ≤0.6% overhead bound holds by construction.
//	explore  — hill-climb. Candidate points are held for a dwell window
//	           of several polls; the window's bandwidth-per-watt
//	           (bytes per joule — minimizing joules per byte minimizes
//	           total energy for a phase with fixed bytes to move) is
//	           compared against the best seen. First the per-shepherd
//	           thread limit descends from the calibrated seed while
//	           efficiency improves by at least the hysteresis margin,
//	           then the DVFS gear descends the same way. The margin and
//	           the dwell are the anti-flap hysteresis: a move must
//	           clearly pay for itself, and no two moves are closer than
//	           one dwell apart.
//	locked   — converged. The point holds until the detector reports a
//	           phase change, the window efficiency drifts off the
//	           fitted model, or the workload goes all-Low (release).
//
// Fail-safe interplay (docs/robustness.md): when the daemon enters
// fail-safe it has already released the machine; reset discards the
// detector state and any half-finished climb, so recovery re-enters
// through monitor with a clean model rather than resuming a climb fed
// by pre-outage sensors. Phase ids survive resets — they are a
// monotonic journal key, not model state.
type adaptive struct {
	mcfg    machine.Config
	journal *telemetry.Journal
	det     *phase.Detector
	met     *adaptiveMetrics

	mode    adaptiveMode
	want    OperatingPoint // point the controller is asking for
	full    OperatingPoint // released state, at the daemon's ThrottleLimit
	phaseID int

	// Release debounce (explore and locked modes).
	coldPolls int

	// Dwell-window accumulators (explore and locked modes).
	dwell    int
	accPower float64
	accBw    float64

	// Hill-climb state.
	stage     exploreStage
	bestEff   float64
	bestPoint OperatingPoint
	probing   OperatingPoint
	seedPt    OperatingPoint // where the limit climb started
	climbUp   bool           // limit axis direction: true=ascend, false=descend
	gearIdx   int
	gearsDone bool // one gear sweep per phase

	// Locked-phase model: the efficiency the climb converged on, the
	// drift debounce toward a refit, and how long the lock has held
	// (the gear sweep waits for a stable lock; see locked).
	lockedEff    float64
	driftDwells  int
	stableDwells int
}

type adaptiveMode int

const (
	modeMonitor adaptiveMode = iota
	modeExplore
	modeLocked
)

type exploreStage int

const (
	stageLimit exploreStage = iota
	stageGear
)

// Adaptive policy tuning.
const (
	// releasePolls is how many consecutive all-Low polls release the
	// machine back to full.
	releasePolls = 2
	// dwellPolls is the measurement window per candidate operating
	// point, in polls (0.3 s at the paper's period).
	dwellPolls = 3
	// margin is the minimum relative efficiency improvement a candidate
	// must show to displace the incumbent — the hill-climb's hysteresis.
	margin = 0.02
	// gearLagDwells is how many stable locked windows precede the gear
	// sweep. DVFS probes slow every core, so a mispredicted gear costs
	// real time; deferring the sweep means short-lived phases (and short
	// programs) only ever pay for the cheap thread-limit climb.
	gearLagDwells = 3
	// gearBwFrac is the fraction of the machine's aggregate plateau
	// bandwidth a phase must sustain for the gear sweep to run at all:
	// lowering the clock is close to free only when the cores are
	// waiting on memory.
	gearBwFrac = 0.5
	// refitDrift is the relative deviation of a locked phase's window
	// efficiency from the fitted value that counts as model drift.
	refitDrift = 0.30
	// refitDwells is how many consecutive drifted windows trigger a
	// refit.
	refitDwells = 2
)

// gears are the DVFS scales probed, descending, once a phase has held
// its locked thread limit for gearLagDwells windows and the node is
// bandwidth-saturated.
var gears = [...]float64{0.9, 0.8, 0.7, 0.6}

// newAdaptive returns the controller for a daemon on mcfg whose
// released state is at throttleLimit.
func newAdaptive(mcfg machine.Config, throttleLimit int, reg *telemetry.Registry, journal *telemetry.Journal) *adaptive {
	a := &adaptive{
		mcfg:    mcfg,
		journal: journal,
		det:     phase.New(),
		met:     newAdaptiveMetrics(reg),
		full:    OperatingPoint{Throttled: false, Limit: throttleLimit, FreqScale: 1},
	}
	a.want = a.full
	return a
}

// reset implements the fail-safe contract: drop everything learned
// from recent (now suspect) readings and re-enter through monitor.
func (a *adaptive) reset() {
	a.det.Reset()
	a.mode = modeMonitor
	a.want = a.full
	a.coldPolls = 0
	a.resetWindow()
	a.driftDwells = 0
	a.met.lockedG.Set(0)
}

func (a *adaptive) resetWindow() {
	a.dwell, a.accPower, a.accBw = 0, 0, 0
}

// step runs the controller one poll forward and returns the point it
// asks for.
func (a *adaptive) step(in PolicyInput) OperatingPoint {
	power, bw, conc := totals(in)

	// The detector watches the workload, not the controller: any
	// operating-point move we make changes power and bandwidth too, so
	// the detector is reset whenever we move (see move) and therefore
	// only accumulates history while the point holds still.
	if a.det.Observe(phase.Sample{Power: power, Bw: bw, Conc: conc}) {
		a.onPhaseChange(in)
	}

	switch a.mode {
	case modeMonitor:
		a.monitor(in)
	case modeExplore:
		a.explore(in, power, bw)
	case modeLocked:
		a.locked(in, power, bw)
	}
	return a.want
}

// totals folds the per-socket readings into node totals.
func totals(in PolicyInput) (power, bw, conc float64) {
	for i := range in.Power {
		power += in.Power[i]
	}
	for i := range in.Membw {
		bw += in.Membw[i]
	}
	for i := range in.Conc {
		conc += in.Conc[i]
	}
	return power, bw, conc
}

// onPhaseChange handles a detector fire: journal it and, if a model
// was fitted or a climb was running, start over for the new phase.
func (a *adaptive) onPhaseChange(in PolicyInput) {
	a.phaseID++
	a.met.detected.Inc()
	a.met.phaseG.Set(float64(a.phaseID))
	a.record(telemetry.KindPhaseDetected, "change_point", in)
	switch a.mode {
	case modeExplore, modeLocked:
		// The model belongs to the previous phase; refit for this one
		// by restarting the climb from the seed.
		a.startExplore(in)
	}
}

// monitor starts exploring on the first poll the dual-condition rule
// calls hot — the same single-poll trigger as the static policy, so the
// two arms engage on the identical poll and their energy deltas are
// attributable to the chosen operating point, not to reaction latency.
func (a *adaptive) monitor(in PolicyInput) {
	if in.Verdict == Enable {
		a.startExplore(in)
	}
}

// seedLimit derives the climb's starting per-shepherd limit from the
// machine's calibrated memory-concurrency knee: with conc outstanding
// references spread over the active cores of a socket, the limit that
// would put the socket right at its knee is knee / (conc per core).
// The estimate is a starting guess, not a bound — a deeply saturated
// socket reports conc well past the knee and drives the quotient toward
// 1, which would start the climb in starved territory where every dwell
// window stretches wall time. Two guards keep the seed honest: the
// configured ThrottleLimit (the paper's 3/4 rule) caps it from above,
// and half that limit floors it from below, leaving the bidirectional
// climb (see nextCandidate) to cover the rest of the range.
func (a *adaptive) seedLimit(in PolicyInput) int {
	cores := a.mcfg.CoresPerSocket
	if cores < 1 {
		cores = 1
	}
	knee := float64(a.mcfg.Mem.KneeRefs)
	limit := a.full.Limit
	if knee > 0 && len(in.Conc) > 0 {
		maxConc := 0.0
		for _, c := range in.Conc {
			if c > maxConc {
				maxConc = c
			}
		}
		if perCore := maxConc / float64(cores); perCore > 0 {
			if est := int(knee / perCore); est < limit {
				limit = est
			}
		}
	}
	if floor := (a.full.Limit + 1) / 2; limit < floor {
		limit = floor
	}
	if limit > cores {
		limit = cores
	}
	return limit
}

// startExplore (re)starts the hill-climb from the knee-derived seed.
func (a *adaptive) startExplore(in PolicyInput) {
	a.mode = modeExplore
	a.stage = stageLimit
	// Ascend first: an upward probe is at worst mildly wasteful (it
	// moves the machine toward its unthrottled baseline), while a
	// downward probe into starved territory stretches wall time for the
	// whole dwell window. The climb only turns downward once the first
	// upward step has lost (see explore).
	a.climbUp = true
	a.gearIdx = 0
	a.gearsDone = false
	a.bestEff = 0
	a.driftDwells = 0
	a.bestPoint = OperatingPoint{Throttled: true, Limit: a.seedLimit(in), FreqScale: 1}
	a.seedPt = a.bestPoint
	a.move(a.bestPoint)
	a.met.lockedG.Set(0)
}

// move actuates a new candidate point and opens a fresh dwell window.
func (a *adaptive) move(pt OperatingPoint) {
	a.probing = pt
	a.want = pt
	a.resetWindow()
	// Our own actuation is about to shift every signal the detector
	// watches; clear its history so it doesn't mistake us for the
	// workload.
	a.det.Reset()
	a.met.steps.Inc()
}

// windowDone accumulates one poll into the dwell window and reports
// whether the window is complete, yielding its mean efficiency in
// bytes per joule.
func (a *adaptive) windowDone(power, bw float64) (eff float64, done bool) {
	// The first poll after a move still reflects the previous point
	// (the sampler's window closed before the actuation landed), so the
	// window starts accumulating from the second poll of a dwell.
	a.dwell++
	if a.dwell == 1 {
		return 0, false
	}
	a.accPower += power
	a.accBw += bw
	if a.dwell < dwellPolls+1 {
		return 0, false
	}
	if a.accPower <= 0 {
		return 0, true
	}
	return a.accBw / a.accPower, true
}

// explore advances the hill-climb by one poll.
func (a *adaptive) explore(in PolicyInput, power, bw float64) {
	if a.released(in) {
		return
	}
	eff, done := a.windowDone(power, bw)
	if !done {
		return
	}
	improved := eff > a.bestEff*(1+margin)
	if a.bestEff == 0 {
		improved = eff > 0
	}
	if improved {
		a.bestEff = eff
		a.bestPoint = a.probing
		if next, ok := a.nextCandidate(); ok {
			a.move(next)
			return
		}
	} else if a.stage == stageLimit && a.climbUp && a.bestPoint == a.seedPt {
		// The knee-derived seed is a guess, not an oracle: when the very
		// first upward step already loses, the optimum may sit below the
		// seed, so the climb turns around instead of locking into the
		// starting guess.
		a.climbUp = false
		if next, ok := a.nextCandidate(); ok {
			a.move(next)
			return
		}
	}
	// The candidate lost (revert to the incumbent) or the axis is
	// exhausted: converge. The gear axis is not chained here — it runs
	// as a deferred second pass once the lock has proven stable (see
	// locked), so a short-lived phase only ever pays for the cheap
	// thread-limit climb.
	a.lock(in)
}

// nextCandidate proposes the next point on the current axis, or reports
// the axis exhausted.
func (a *adaptive) nextCandidate() (OperatingPoint, bool) {
	switch a.stage {
	case stageLimit:
		if a.climbUp {
			if max := a.mcfg.CoresPerSocket; a.bestPoint.Limit < max {
				pt := a.bestPoint
				pt.Limit++
				return pt, true
			}
			return OperatingPoint{}, false
		}
		if a.bestPoint.Limit > 1 { // the climb may descend to one worker per shepherd
			pt := a.bestPoint
			pt.Limit--
			return pt, true
		}
		return OperatingPoint{}, false
	default:
		for a.gearIdx < len(gears) {
			gear := gears[a.gearIdx]
			a.gearIdx++
			if gear > 0 && gear < a.bestPoint.FreqScale {
				pt := a.bestPoint
				pt.FreqScale = gear
				return pt, true
			}
		}
		return OperatingPoint{}, false
	}
}

// lock converges on the best point found and fits the phase model.
func (a *adaptive) lock(in PolicyInput) {
	a.mode = modeLocked
	a.lockedEff = a.bestEff
	a.driftDwells = 0
	a.stableDwells = 0
	if a.want != a.bestPoint {
		a.move(a.bestPoint)
	} else {
		a.resetWindow()
	}
	a.met.refits.Inc()
	a.met.lockedG.Set(1)
	a.record(telemetry.KindModelRefit, "converged", in)
}

// locked holds the fitted point, watching for release, drift and phase
// changes (the detector handles the latter via onPhaseChange).
func (a *adaptive) locked(in PolicyInput, power, bw float64) {
	if a.released(in) {
		return
	}
	eff, done := a.windowDone(power, bw)
	if !done {
		return
	}
	windowBw := a.accBw / dwellPolls
	a.resetWindow()
	if a.lockedEff <= 0 {
		return
	}
	drift := eff/a.lockedEff - 1
	if drift < 0 {
		drift = -drift
	}
	if drift > refitDrift {
		a.driftDwells++
		a.stableDwells = 0
		if a.driftDwells >= refitDwells {
			// The phase changed shape under the model (or the detector
			// missed a transition): refit.
			a.startExplore(in)
			a.record(telemetry.KindModelRefit, "drift", in)
		}
		return
	}
	a.driftDwells = 0
	a.stableDwells++
	// Deferred gear sweep: once the thread-limit lock has proven
	// stable and the phase is genuinely bandwidth-bound, probe DVFS
	// gears on top of it. Long phases amortize the probe; short ones
	// end before reaching here and never pay for it.
	if !a.gearsDone && a.stableDwells >= gearLagDwells && a.bandwidthSaturated(windowBw) {
		a.gearsDone = true
		a.mode = modeExplore
		a.stage = stageGear
		a.gearIdx = 0
		a.bestEff = eff // measure gears against the current lock, freshly
		if next, ok := a.nextCandidate(); ok {
			a.move(next)
			return
		}
		a.mode = modeLocked
	}
}

// bandwidthSaturated reports whether the node moved at least gearBwFrac
// of its aggregate plateau bandwidth over the last window — the regime
// where lowering the clock is nearly free.
func (a *adaptive) bandwidthSaturated(windowBw float64) bool {
	capacity := float64(a.mcfg.Mem.BandwidthPerSocket) * float64(a.mcfg.Sockets)
	return capacity > 0 && windowBw >= gearBwFrac*capacity
}

// released counts the polls the dual-condition rule calls cold and,
// after releasePolls in a row, returns the machine to full speed and
// re-arms the monitor.
func (a *adaptive) released(in PolicyInput) bool {
	if in.Verdict != Disable {
		a.coldPolls = 0
		return false
	}
	if a.coldPolls++; a.coldPolls < releasePolls {
		return false
	}
	a.mode = modeMonitor
	a.coldPolls = 0
	a.move(a.full)
	a.met.lockedG.Set(0)
	return true
}

// record emits one phase-lifecycle record through the daemon's sink.
func (a *adaptive) record(kind, detail string, in PolicyInput) {
	if a.journal == nil {
		return
	}
	a.journal.Record(telemetry.Decision{
		T:         in.Now,
		Kind:      kind,
		Detail:    detail,
		Engaged:   a.want != a.full,
		Limit:     a.want.Limit,
		Freq:      a.want.FreqScale,
		Phase:     a.phaseID,
		Staleness: in.Staleness,
	})
}

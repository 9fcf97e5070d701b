// Package phase segments a stream of node-level telemetry samples into
// workload phases. The adaptive MAESTRO policy (package maestro) feeds
// it one sample per daemon poll — node power, memory bandwidth and
// outstanding-reference concurrency — and treats every reported change
// point as a phase boundary: the per-phase speedup/power model is
// re-seeded and the operating-point search restarted.
//
// Detection is a dual-EWMA scheme: for each signal a fast and a slow
// exponential moving average track the stream, and a change point fires
// when the two diverge by more than a relative threshold for minRun
// consecutive samples. The slow average is the phase baseline, the fast
// one the current behaviour; sustained divergence means the workload
// moved to a new regime rather than jittering inside the old one. A
// cooldown after each fire keeps one real transition from being
// reported as several.
package phase

import "math"

// Sample is one observation of the node: total power in Watts, total
// memory bandwidth in bytes/s and total outstanding memory references.
type Sample struct {
	Power float64
	Bw    float64
	Conc  float64
}

// Detector tuning.
const (
	// fastAlpha and slowAlpha are the EWMA smoothing factors of the fast
	// and slow trackers (0 < alpha <= 1; larger is more reactive).
	fastAlpha, slowAlpha = 0.5, 0.08
	// threshold is the relative divergence |fast-slow|/max(|slow|,eps)
	// that arms a change point.
	threshold = 0.25
	// minRun is how many consecutive divergent samples must be seen
	// before a change point fires (debounce against single-sample
	// spikes).
	minRun = 2
	// cooldown is how many samples after a fire the detector stays
	// disarmed, letting the trackers converge on the new phase.
	cooldown = 4
	// warmup is how many samples the detector absorbs before it may fire
	// at all (the first phase is not a "change").
	warmup = 3
)

// track is one signal's dual-EWMA pair.
type track struct {
	fast, slow float64
}

func (tr *track) observe(v float64, primed bool) {
	if !primed {
		tr.fast, tr.slow = v, v
		return
	}
	tr.fast += fastAlpha * (v - tr.fast)
	tr.slow += slowAlpha * (v - tr.slow)
}

// divergence is the relative gap between a raw sample and the slow
// baseline, with a per-signal floor so near-zero baselines don't turn
// noise into infinite relative change. Testing the raw sample (not the
// fast tracker) keeps a single spike from smearing across several
// samples through the fast EWMA's decay and defeating minRun.
func (tr *track) divergence(v, floor float64) float64 {
	base := math.Abs(tr.slow)
	if base < floor {
		base = floor
	}
	return math.Abs(v-tr.slow) / base
}

// Detector is a streaming change-point detector. The zero value is not
// ready; create with New. Observe is not safe for concurrent use — the
// intended caller is a single control loop.
type Detector struct {
	power  track
	bw     track
	conc   track
	seen   int
	run    int
	cool   int
	phases int
}

// New returns a Detector.
func New() *Detector { return &Detector{} }

// Phases returns how many change points have fired so far.
func (d *Detector) Phases() int { return d.phases }

// Reset clears the trackers (fail-safe entry: whatever the sensors said
// during the outage is not trustworthy history). The phase counter is
// preserved — phases already seen stay seen.
func (d *Detector) Reset() {
	d.power, d.bw, d.conc = track{}, track{}, track{}
	d.seen, d.run, d.cool = 0, 0, 0
}

// Observe feeds one sample and reports whether a change point fired on
// it. Non-finite inputs are ignored (the staleness watchdog upstream is
// the layer that handles sensor garbage; the detector must never let a
// NaN poison its trackers).
func (d *Detector) Observe(s Sample) bool {
	if !finite(s.Power) || !finite(s.Bw) || !finite(s.Conc) {
		return false
	}
	primed := d.seen > 0
	d.power.observe(s.Power, primed)
	d.bw.observe(s.Bw, primed)
	// Concurrency gets its own tracker: its scale (tens of outstanding
	// refs) would vanish inside the bandwidth signal (GB/s).
	d.conc.observe(s.Conc, primed)
	d.seen++
	if d.seen <= warmup {
		return false
	}
	if d.cool > 0 {
		d.cool--
		d.run = 0
		// While cooling, the baseline follows the fast tracker so the
		// detector re-arms against the new regime, not the old one.
		d.snap()
		return false
	}
	// Floors: 1 W of power, 0.1 GB/s of bandwidth, 1 outstanding ref —
	// below these the signal is idle noise, not a phase.
	if d.power.divergence(s.Power, 1) > threshold ||
		d.bw.divergence(s.Bw, 1e8) > threshold ||
		d.conc.divergence(s.Conc, 1) > threshold {
		d.run++
	} else {
		d.run = 0
	}
	if d.run >= minRun {
		d.run = 0
		d.cool = cooldown
		d.phases++
		// Snap the slow trackers onto the new regime so the next
		// divergence is measured against the new phase's baseline.
		d.snap()
		return true
	}
	return false
}

func (d *Detector) snap() {
	d.power.slow = d.power.fast
	d.bw.slow = d.bw.fast
	d.conc.slow = d.conc.fast
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

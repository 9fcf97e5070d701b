package rapl

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/units"
)

// GuardState is the per-domain health state of a Guard — the fail-safe
// state machine of docs/robustness.md: sensing → suspect → quarantined →
// recovered → sensing.
type GuardState int

// Guard states.
const (
	// GuardSensing: the domain is healthy and deltas are booked normally.
	GuardSensing GuardState = iota
	// GuardSuspect: a recent fault or implausible reading; every call
	// still retries the underlying reader.
	GuardSuspect
	// GuardQuarantined: persistently faulting; reads are refused until a
	// bounded-backoff retry deadline passes.
	GuardQuarantined
	// GuardRecovered: the first successful read after a fault window has
	// resynchronized the baseline; the next clean read returns to
	// GuardSensing.
	GuardRecovered
)

// String returns the state name.
func (s GuardState) String() string {
	switch s {
	case GuardSensing:
		return "sensing"
	case GuardSuspect:
		return "suspect"
	case GuardQuarantined:
		return "quarantined"
	case GuardRecovered:
		return "recovered"
	default:
		return fmt.Sprintf("GuardState(%d)", int(s))
	}
}

// QuarantineError reports a read refused because the domain is inside
// its quarantine backoff window.
type QuarantineError struct {
	Domain  int
	RetryAt time.Duration
}

func (e *QuarantineError) Error() string {
	return fmt.Sprintf("rapl: domain %d quarantined until t=%v", e.Domain, e.RetryAt)
}

// ImplausibleError reports a reading rejected by the plausibility clamp:
// the cumulative energy moved by more than the configured per-window
// bound, the signature of a garbage counter value or a phantom 2^32 lap.
type ImplausibleError struct {
	Domain int
	Delta  units.Joules
}

func (e *ImplausibleError) Error() string {
	return fmt.Sprintf("rapl: domain %d implausible energy delta %v", e.Domain, e.Delta)
}

// GuardConfig tunes a Guard.
type GuardConfig struct {
	// Clock supplies the current time for backoff deadlines — virtual
	// time (machine.Now) in the simulator, wall time on a real host.
	// Required.
	Clock func() time.Duration
	// SuspectAfter is how many consecutive faults move a domain from
	// suspect to quarantined. Zero selects 3.
	SuspectAfter int
	// Backoff is the initial quarantine retry interval; it doubles per
	// failed retry up to BackoffMax. Zero selects 10 ms (one RCR sample
	// period); BackoffMax zero selects 8× Backoff.
	Backoff, BackoffMax time.Duration
	// MaxWindowJoules bounds the cumulative-energy delta accepted
	// between two reads; larger moves are rejected as garbage. Zero
	// selects 2000 J — far above any real per-window energy at node
	// scale, far below the ~65.7 kJ of a phantom 32-bit counter lap.
	MaxWindowJoules float64
	// StuckAfter is how many consecutive exactly-zero deltas mark a
	// frozen counter as faulty. An active package always draws uncore
	// base power, so a healthy counter moves every window; an exact
	// repeat N times in a row is a stuck sensor, which would otherwise
	// masquerade as fresh zero-power data. Zero selects 8; negative
	// disables the check.
	StuckAfter int
	// Telemetry, when non-nil, receives the guard's rapl_guard_*
	// counters and quarantined-domain gauge (docs/observability.md).
	Telemetry *telemetry.Registry
}

// guardMetrics is the Guard's instrument set, fixed at construction.
type guardMetrics struct {
	faults      *telemetry.Counter
	implausible *telemetry.Counter
	stuck       *telemetry.Counter
	quarantines *telemetry.Counter
	recoveries  *telemetry.Counter
	quarantined *telemetry.Gauge // domains currently quarantined
}

// guardDomain is the per-domain state.
type guardDomain struct {
	state    GuardState
	faults   int     // consecutive faults (read errors + rejections)
	zeroRuns int     // consecutive exactly-zero deltas
	last     float64 // inner cumulative energy at the last accepted read
	acc      float64 // guarded cumulative energy
	haveBase bool
	backoff  time.Duration
	retryAt  time.Duration
}

// Guard wraps a Reader with per-domain fault containment: immediate
// retries while suspect, bounded exponential backoff once quarantined, a
// plausibility clamp that rejects garbage counter moves, and baseline
// resynchronization on recovery so an outage never books a phantom
// counter lap. It maintains its own cumulative energy per domain,
// accumulating only accepted deltas, and implements Reader itself.
type Guard struct {
	inner Reader
	cfg   GuardConfig

	mu   sync.Mutex
	doms []guardDomain

	met *guardMetrics
}

// NewGuard wraps reader. The config's Clock is required.
func NewGuard(reader Reader, cfg GuardConfig) (*Guard, error) {
	if reader == nil {
		return nil, fmt.Errorf("rapl: guard requires a reader")
	}
	if cfg.Clock == nil {
		return nil, fmt.Errorf("rapl: guard requires a clock")
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 3
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 10 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 8 * cfg.Backoff
	}
	if cfg.MaxWindowJoules <= 0 {
		cfg.MaxWindowJoules = 2000
	}
	if cfg.StuckAfter == 0 {
		cfg.StuckAfter = 8
	}
	reg := cfg.Telemetry
	return &Guard{
		inner: reader,
		cfg:   cfg,
		doms:  make([]guardDomain, reader.Domains()),
		met: &guardMetrics{
			faults:      reg.Counter("rapl_guard_faults_total"),
			implausible: reg.Counter("rapl_guard_implausible_total"),
			stuck:       reg.Counter("rapl_guard_stuck_total"),
			quarantines: reg.Counter("rapl_guard_quarantines_total"),
			recoveries:  reg.Counter("rapl_guard_recoveries_total"),
			quarantined: reg.Gauge("rapl_guard_quarantined"),
		},
	}, nil
}

// Domains returns the wrapped reader's domain count.
func (g *Guard) Domains() int { return g.inner.Domains() }

// Name returns the wrapped reader's domain name.
func (g *Guard) Name(domain int) string { return g.inner.Name(domain) }

// State returns a domain's current health state.
func (g *Guard) State(domain int) GuardState {
	g.mu.Lock()
	defer g.mu.Unlock()
	if domain < 0 || domain >= len(g.doms) {
		return GuardSensing
	}
	return g.doms[domain].state
}

// Quarantined returns how many domains are currently quarantined.
func (g *Guard) Quarantined() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for i := range g.doms {
		if g.doms[i].state == GuardQuarantined {
			n++
		}
	}
	return n
}

// Energy returns the guarded cumulative energy of a domain. Faulting
// domains return errors (quarantine refusals, propagated read errors, or
// plausibility rejections); callers treat those windows as stale, which
// is what lets downstream staleness watchdogs see the outage.
func (g *Guard) Energy(domain int) (units.Joules, error) {
	if domain < 0 || domain >= len(g.doms) {
		return 0, domainError(domain, len(g.doms))
	}
	now := g.cfg.Clock()
	g.mu.Lock()
	defer g.mu.Unlock()
	d := &g.doms[domain]
	if d.state == GuardQuarantined && now < d.retryAt {
		return 0, &QuarantineError{Domain: domain, RetryAt: d.retryAt}
	}
	e, err := g.inner.Energy(domain)
	if err != nil {
		g.faultLocked(d, now)
		g.met.faults.Inc()
		return 0, err
	}
	cur := float64(e)
	if !d.haveBase {
		d.haveBase = true
		d.last = cur
		if d.faults > 0 || d.state == GuardQuarantined {
			// A restored checkpoint (Restore clears the baseline) can put a
			// faulted domain here: this successful read both seeds the
			// baseline and completes the recovery transition.
			if d.state == GuardQuarantined {
				g.met.quarantined.Add(-1)
			}
			d.state = GuardRecovered
			d.faults = 0
			d.zeroRuns = 0
			g.met.recoveries.Inc()
		}
		return units.Joules(d.acc), nil
	}
	delta := cur - d.last
	if d.faults > 0 || d.state == GuardQuarantined {
		// First success after a fault window: resynchronize the baseline
		// without booking the cross-outage delta (see MSRReader.Energy
		// for why trusting it risks a phantom counter lap).
		if d.state == GuardQuarantined {
			g.met.quarantined.Add(-1)
		}
		d.state = GuardRecovered
		d.faults = 0
		d.zeroRuns = 0
		d.last = cur
		g.met.recoveries.Inc()
		return units.Joules(d.acc), nil
	}
	if delta < 0 || delta > g.cfg.MaxWindowJoules {
		// Garbage: the inner reader's accumulator moved implausibly far
		// (a mis-read counter booked as a wrap). Absorb it — resync the
		// baseline so the phantom energy never reaches the caller — and
		// report the window as faulty.
		d.last = cur
		g.faultLocked(d, now)
		g.met.faults.Inc()
		g.met.implausible.Inc()
		return 0, &ImplausibleError{Domain: domain, Delta: units.Joules(delta)}
	}
	if g.cfg.StuckAfter > 0 && delta == 0 {
		d.zeroRuns++
		if d.zeroRuns >= g.cfg.StuckAfter {
			// Frozen counter: fresh-looking zero-power windows forever.
			g.faultLocked(d, now)
			g.met.faults.Inc()
			g.met.stuck.Inc()
			return 0, fmt.Errorf("rapl: domain %d counter stuck for %d windows", domain, d.zeroRuns)
		}
	} else {
		d.zeroRuns = 0
	}
	d.acc += delta
	d.last = cur
	d.state = GuardSensing
	return units.Joules(d.acc), nil
}

// DomainCheckpoint is the serializable fail-safe state of one guarded
// domain — what a crash-safe daemon persists so a restart resumes with
// warm guard state instead of re-trusting a quarantined sensor
// (internal/resilience, docs/robustness.md).
type DomainCheckpoint struct {
	State    GuardState
	Faults   int
	ZeroRuns int
	// Acc is the guarded cumulative energy booked so far (Joules).
	Acc float64
	// Backoff is the quarantine retry interval in force; RetryIn is how
	// much of the current backoff window remained at checkpoint time.
	Backoff time.Duration
	RetryIn time.Duration
}

// Checkpoint snapshots every domain's fail-safe state. Quarantine
// deadlines are stored as remaining durations so they survive a clock
// restart (the restoring process re-anchors them to its own clock).
func (g *Guard) Checkpoint() []DomainCheckpoint {
	now := g.cfg.Clock()
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]DomainCheckpoint, len(g.doms))
	for i := range g.doms {
		d := &g.doms[i]
		cp := DomainCheckpoint{
			State:    d.state,
			Faults:   d.faults,
			ZeroRuns: d.zeroRuns,
			Acc:      d.acc,
			Backoff:  d.backoff,
		}
		if d.state == GuardQuarantined && d.retryAt > now {
			cp.RetryIn = d.retryAt - now
		}
		out[i] = cp
	}
	return out
}

// Restore installs a checkpoint taken by a previous incarnation:
// quarantined domains stay quarantined (their remaining backoff
// re-anchored to the current clock) and the guarded energy accumulators
// resume where they left off. The counter baseline is deliberately NOT
// restored — haveBase is cleared so the first read after restore
// resynchronizes against the live counter without booking the
// cross-outage delta (the resync rule of docs/robustness.md). Extra
// checkpoint domains beyond the reader's are ignored; out-of-range
// values are clamped, so a corrupt-but-decodable checkpoint degrades to
// a cold start rather than poisoning the state machine.
func (g *Guard) Restore(doms []DomainCheckpoint) {
	now := g.cfg.Clock()
	g.mu.Lock()
	defer g.mu.Unlock()
	n := len(doms)
	if n > len(g.doms) {
		n = len(g.doms)
	}
	for i := 0; i < n; i++ {
		cp := doms[i]
		d := &g.doms[i]
		if cp.State < GuardSensing || cp.State > GuardRecovered {
			cp.State = GuardSensing
		}
		d.state = cp.State
		d.faults = cp.Faults
		d.zeroRuns = cp.ZeroRuns
		d.acc = cp.Acc
		d.haveBase = false
		d.last = 0
		d.backoff = cp.Backoff
		if d.backoff < 0 {
			d.backoff = 0
		}
		if d.backoff > g.cfg.BackoffMax {
			d.backoff = g.cfg.BackoffMax
		}
		if d.state == GuardQuarantined {
			if d.backoff <= 0 {
				d.backoff = g.cfg.Backoff
			}
			retry := cp.RetryIn
			if retry < 0 {
				retry = 0
			}
			if retry > g.cfg.BackoffMax {
				retry = g.cfg.BackoffMax
			}
			d.retryAt = now + retry
		} else {
			d.retryAt = 0
		}
	}
	q := 0
	for i := range g.doms {
		if g.doms[i].state == GuardQuarantined {
			q++
		}
	}
	g.met.quarantined.Set(float64(q))
}

// faultLocked advances the state machine on a fault at time now.
func (g *Guard) faultLocked(d *guardDomain, now time.Duration) {
	d.faults++
	switch d.state {
	case GuardQuarantined:
		// Failed retry: double the backoff, bounded.
		d.backoff *= 2
		if d.backoff > g.cfg.BackoffMax {
			d.backoff = g.cfg.BackoffMax
		}
		d.retryAt = now + d.backoff
	default:
		if d.faults >= g.cfg.SuspectAfter {
			d.state = GuardQuarantined
			d.backoff = g.cfg.Backoff
			d.retryAt = now + d.backoff
			g.met.quarantines.Inc()
			g.met.quarantined.Add(1)
		} else {
			d.state = GuardSuspect
		}
	}
}

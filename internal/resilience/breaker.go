package resilience

import (
	"errors"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// BreakerState is the circuit breaker's position.
type BreakerState int

// Breaker states. Closed passes traffic; Open refuses it outright until
// a cooldown expires; HalfOpen lets a limited number of probes through
// to decide between re-closing and re-opening.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String returns the state name.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half_open"
	default:
		return "BreakerState(?)"
	}
}

// ErrBreakerOpen reports a call refused because the breaker is open.
var ErrBreakerOpen = errors.New("resilience: circuit breaker open")

// BreakerConfig tunes a Breaker.
type BreakerConfig struct {
	// Clock supplies the current time for cooldown deadlines — virtual
	// time in the simulator, wall time against a real daemon. Required.
	Clock func() time.Duration
	// FailureThreshold is how many consecutive failures trip a closed
	// breaker open. Zero selects 3.
	FailureThreshold int
	// OpenFor is the initial cooldown; a probe failure while half-open
	// doubles it up to OpenForMax. Zero selects 100 ms (one maestro poll
	// period); OpenForMax zero selects 8× OpenFor.
	OpenFor, OpenForMax time.Duration
	// Journal, when non-nil, receives a record for every state
	// transition (KindBreakerOpen / KindBreakerHalfOpen /
	// KindBreakerClosed), which is how the client corpus and acceptance
	// tests assert the breaker actually cycled.
	Journal *telemetry.Journal
	// Telemetry, when non-nil, receives the breaker's trip counter and
	// state gauge (docs/observability.md).
	Telemetry *telemetry.Registry
}

// Breaker is a three-state circuit breaker. It is a pure decision
// mechanism: callers ask Allow before an attempt and report the outcome
// with Success or Failure; the breaker never performs I/O itself.
type Breaker struct {
	cfg BreakerConfig

	mu        sync.Mutex
	state     BreakerState
	failures  int           // consecutive failures while closed
	cooldown  time.Duration // current open cooldown (doubles per re-open)
	openUntil time.Duration

	trips *telemetry.Counter
	gauge *telemetry.Gauge
}

// NewBreaker builds a breaker; the config's Clock is required.
func NewBreaker(cfg BreakerConfig) (*Breaker, error) {
	if cfg.Clock == nil {
		return nil, errors.New("resilience: breaker requires a clock")
	}
	if cfg.FailureThreshold <= 0 {
		cfg.FailureThreshold = 3
	}
	if cfg.OpenFor <= 0 {
		cfg.OpenFor = 100 * time.Millisecond
	}
	if cfg.OpenForMax <= 0 {
		cfg.OpenForMax = 8 * cfg.OpenFor
	}
	return &Breaker{
		cfg:      cfg,
		cooldown: cfg.OpenFor,
		trips:    cfg.Telemetry.Counter("resilience_breaker_trips_total"),
		gauge:    cfg.Telemetry.Gauge("resilience_breaker_state"),
	}, nil
}

// State returns the breaker's current position, advancing an expired
// open cooldown to half-open first so callers never observe a stale
// "open" that Allow would in fact let through.
func (b *Breaker) State() BreakerState {
	now := b.cfg.Clock()
	b.mu.Lock()
	defer b.mu.Unlock()
	b.advanceLocked(now)
	return b.state
}

// Allow reports whether a call may proceed. While open it returns
// ErrBreakerOpen; once the cooldown passes the breaker moves to
// half-open and admits probes.
func (b *Breaker) Allow() error {
	now := b.cfg.Clock()
	b.mu.Lock()
	defer b.mu.Unlock()
	b.advanceLocked(now)
	if b.state == BreakerOpen {
		return ErrBreakerOpen
	}
	return nil
}

// Success reports a successful call. Closed: clears the failure run.
// Half-open: the first successful probe closes the breaker.
func (b *Breaker) Success() {
	now := b.cfg.Clock()
	b.mu.Lock()
	defer b.mu.Unlock()
	b.advanceLocked(now)
	switch b.state {
	case BreakerClosed:
		b.failures = 0
	case BreakerHalfOpen:
		b.transitionLocked(now, BreakerClosed, "probes_ok")
		b.failures = 0
		b.cooldown = b.cfg.OpenFor
	}
}

// Failure reports a failed call. Closed: counts toward the trip
// threshold. Half-open: re-opens immediately with a doubled cooldown.
func (b *Breaker) Failure() {
	now := b.cfg.Clock()
	b.mu.Lock()
	defer b.mu.Unlock()
	b.advanceLocked(now)
	switch b.state {
	case BreakerClosed:
		b.failures++
		if b.failures >= b.cfg.FailureThreshold {
			b.cooldown = b.cfg.OpenFor
			b.openLocked(now, "failure_threshold")
		}
	case BreakerHalfOpen:
		b.cooldown *= 2
		if b.cooldown > b.cfg.OpenForMax {
			b.cooldown = b.cfg.OpenForMax
		}
		b.openLocked(now, "probe_failed")
	case BreakerOpen:
		// A straggler completing after the trip; the cooldown already
		// covers it.
	}
}

// advanceLocked expires an open cooldown into half-open.
func (b *Breaker) advanceLocked(now time.Duration) {
	if b.state == BreakerOpen && now >= b.openUntil {
		b.transitionLocked(now, BreakerHalfOpen, "cooldown_elapsed")
	}
}

// openLocked trips the breaker open at now for the current cooldown.
func (b *Breaker) openLocked(now time.Duration, why string) {
	b.openUntil = now + b.cooldown
	b.transitionLocked(now, BreakerOpen, why)
	b.trips.Inc()
}

// transitionLocked performs a state change and journals it.
func (b *Breaker) transitionLocked(now time.Duration, to BreakerState, why string) {
	b.state = to
	b.gauge.Set(float64(to))
	kind := telemetry.KindBreakerClosed
	switch to {
	case BreakerOpen:
		kind = telemetry.KindBreakerOpen
	case BreakerHalfOpen:
		kind = telemetry.KindBreakerHalfOpen
	}
	b.cfg.Journal.Record(telemetry.Decision{
		T:       now,
		Kind:    kind,
		Detail:  why,
		Outcome: to.String(),
	})
}

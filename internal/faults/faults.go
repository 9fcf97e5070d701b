// Package faults is the deterministic fault-injection layer for the
// measurement-and-throttling stack: seeded schedules of sensor,
// sampler and actuation faults, an Injector that turns a schedule into
// the hook/gate functions the other layers expose (msr read hooks,
// rcr sampler gates, maestro actuation hooks), and a chaos harness
// (RunChaos) that replays schedules against the node core.New builds,
// at its shipped tuning, and checks the fail-safe invariants of
// docs/robustness.md.
//
// Everything is reproducible: the same seed yields the same schedule and
// the same injected garbage values. core.New parks the node's clock and
// RunChaos installs its hooks before the first step, so a whole run, and
// its ChaosReport, repeats exactly at any GOMAXPROCS.
package faults

import (
	"fmt"
	"math"
	"time"
)

// Kind enumerates the injectable fault classes, one per layer of the
// RAPL → RCR → MAESTRO pipeline (docs/robustness.md has the taxonomy).
type Kind int

// Fault kinds.
const (
	// MSRReadError fails rdmsr on the energy counter outright.
	MSRReadError Kind = iota
	// MSRStuck freezes the energy counter at its value on entry to the
	// fault window — fresh-looking reads that never move.
	MSRStuck
	// MSRGarbage substitutes a seeded pseudorandom 32-bit value for the
	// energy counter, the classic torn/corrupted readout.
	MSRGarbage
	// SamplerStall makes the RCR sampler skip its windows: no publishes,
	// meters age in place.
	SamplerStall
	// SamplerCrash kills the sampler outright (the rcrd process dying);
	// only the sampler watchdog's restart resumes measurement.
	SamplerCrash
	// MeterDrop suppresses individual socket-meter publishes, tearing
	// blackboard rows (some meters of a socket update, others go stale).
	MeterDrop
	// ActuationDelay defers the throttle daemon's mechanism actuation:
	// its control thread blocks for Delay and misses overlapped polls.
	ActuationDelay
	// ActuationDrop loses the actuation entirely; the daemon's
	// reconciliation retries it on a later poll.
	ActuationDrop

	// NumKinds is the number of fault kinds.
	NumKinds
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case MSRReadError:
		return "msr-read-error"
	case MSRStuck:
		return "msr-stuck"
	case MSRGarbage:
		return "msr-garbage"
	case SamplerStall:
		return "sampler-stall"
	case SamplerCrash:
		return "sampler-crash"
	case MeterDrop:
		return "meter-drop"
	case ActuationDelay:
		return "actuation-delay"
	case ActuationDrop:
		return "actuation-drop"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Window is the span a fault is active for: [Start, End), in virtual
// time or in elapsed time from a run's beginning. Every tier's events
// carry one, and every generator draws it the same way (stream.window).
type Window struct {
	Start, End time.Duration
}

// Covers reports whether the window is active at now.
func (w Window) Covers(now time.Duration) bool { return now >= w.Start && now < w.End }

// span is the window ClearTime reads; an event that embeds a Window
// inherits it.
func (w Window) span() Window { return w }

// ClearTime returns the instant the last of events' windows closes, zero
// when there are none: after it the layer under test must converge back
// to normal operation.
func ClearTime[E interface{ span() Window }](events []E) time.Duration {
	var t time.Duration
	for i := range events {
		t = max(t, events[i].span().End)
	}
	return t
}

// Event is one fault window: Kind is active on Domain (a socket index,
// or negative for every domain). Delay is only meaningful for
// ActuationDelay.
type Event struct {
	Kind   Kind
	Domain int
	Window
	Delay time.Duration
}

// Schedule is a seeded set of fault windows.
type Schedule struct {
	Seed   uint64
	Events []Event
}

// splitmix64 is the stateless PRNG behind schedule generation and
// injected garbage values: one multiply-xorshift pass with full 64-bit
// avalanche, so nearby seeds produce unrelated streams.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// stream is the seeded splitmix64 sequence a generator draws from.
type stream struct{ state uint64 }

func (s *stream) next() uint64 {
	s.state = splitmix64(s.state)
	return s.state
}

// window draws the envelope every tier shares: a start in the first 3/5
// of horizon, then a length of horizon/50 plus less than maxDur, cut to
// close by 4/5 of horizon, so a run always ends with a convergence tail.
// On a horizon tierHorizon admits, the window is never empty.
func (s *stream) window(horizon, maxDur time.Duration) Window {
	w := Window{Start: time.Duration(s.next() % uint64(horizon*3/5))}
	w.End = min(w.Start+horizon/50+time.Duration(s.next()%uint64(maxDur)), horizon*4/5)
	return w
}

// tierHorizon returns horizon, or the tier's default def for a horizon
// the envelope cannot be drawn in: one that is not positive, one under
// 200 ns (the finest draw, horizon/200, would be empty and some modulus
// zero), or one too long to scale by 4/5 without overflow.
func tierHorizon(horizon, def time.Duration) time.Duration {
	if horizon < 200 || horizon > math.MaxInt64/4 {
		return def
	}
	return horizon
}

// GenerateSchedule derives a deterministic fault schedule from a seed:
// 3–8 events of mixed kinds in the shared envelope (stream.window), each
// lasting less than horizon/50 + horizon/4. Domains beyond the given count
// never appear; about a quarter of events hit every domain.
func GenerateSchedule(seed uint64, horizon time.Duration, domains int) Schedule {
	domains = max(domains, 1)
	horizon = tierHorizon(horizon, 400*time.Millisecond)
	s := &stream{seed}
	sched := Schedule{Seed: seed, Events: make([]Event, 3+s.next()%6)}
	for i := range sched.Events {
		ev := &sched.Events[i]
		ev.Kind = Kind(s.next() % uint64(NumKinds))
		ev.Domain = int(s.next() % uint64(domains))
		if s.next()%4 == 0 {
			ev.Domain = -1 // node-wide fault
		}
		ev.Window = s.window(horizon, horizon/4)
		if ev.Kind == ActuationDelay {
			// Between one and four daemon poll periods at the chaos
			// harness's 10 ms cadence.
			ev.Delay = 10*time.Millisecond + time.Duration(s.next()%uint64(30*time.Millisecond))
		}
	}
	return sched
}

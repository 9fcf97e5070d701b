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

// Event is one fault window: Kind is active on Domain (a socket index,
// or negative for every domain) for virtual times in [Start, End).
// Delay is only meaningful for ActuationDelay.
type Event struct {
	Kind       Kind
	Domain     int
	Start, End time.Duration
	Delay      time.Duration
}

// covers reports whether the event is active at now for domain.
func (e *Event) covers(now time.Duration, domain int) bool {
	return now >= e.Start && now < e.End && (e.Domain < 0 || e.Domain == domain)
}

// Schedule is a seeded set of fault windows.
type Schedule struct {
	Seed   uint64
	Events []Event
}

// ClearTime returns the instant the last fault window closes — after
// it the pipeline must converge back to normal operation. Zero for an
// empty schedule.
func (s Schedule) ClearTime() time.Duration {
	var t time.Duration
	for i := range s.Events {
		if s.Events[i].End > t {
			t = s.Events[i].End
		}
	}
	return t
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

// GenerateSchedule derives a deterministic fault schedule from a seed:
// 3–8 events of mixed kinds, each starting in the first 60% of horizon
// and lasting between horizon/50 and horizon/4, all closed by 80% of
// horizon so a run always has a convergence window. Domains beyond the
// given count never appear; about a quarter of events hit every domain.
func GenerateSchedule(seed uint64, horizon time.Duration, domains int) Schedule {
	if domains < 1 {
		domains = 1
	}
	if horizon <= 0 {
		horizon = 400 * time.Millisecond
	}
	state := seed
	next := func() uint64 {
		state = splitmix64(state)
		return state
	}
	n := 3 + int(next()%6)
	sched := Schedule{Seed: seed, Events: make([]Event, 0, n)}
	latest := horizon * 4 / 5
	for i := 0; i < n; i++ {
		ev := Event{
			Kind:   Kind(next() % uint64(NumKinds)),
			Domain: int(next() % uint64(domains)),
		}
		if next()%4 == 0 {
			ev.Domain = -1 // node-wide fault
		}
		ev.Start = time.Duration(next() % uint64(horizon*3/5))
		dur := horizon/50 + time.Duration(next()%uint64(horizon/4))
		ev.End = ev.Start + dur
		if ev.End > latest {
			ev.End = latest
		}
		if ev.End <= ev.Start {
			ev.Start = latest - horizon/50
			ev.End = latest
		}
		if ev.Kind == ActuationDelay {
			// Between one and four daemon poll periods at the chaos
			// harness's 10 ms cadence.
			ev.Delay = time.Duration(10e6 + next()%uint64(30e6))
		}
		sched.Events = append(sched.Events, ev)
	}
	return sched
}

package faults

import (
	"fmt"
	"time"
)

// ServiceKind enumerates the service-level fault classes between rcrd
// clients and the server — network and process faults, as opposed to the
// sensor and actuation faults of Kind. The resilience client corpus and
// the cluster scenario runner both inject them.
type ServiceKind int

// Service fault kinds.
const (
	// ServerRestart kills the daemon's listener mid-window and restarts
	// it at the window's end: every in-flight query fails, and queries
	// during the window get connection-refused.
	ServerRestart ServiceKind = iota
	// ConnReset tears down accepted connections mid-exchange — the
	// classic RST after the request was written but before the reply
	// lands.
	ConnReset
	// SlowLoris throttles a connection to a crawl: bytes trickle so
	// slowly that only deadline enforcement frees the server's worker.
	SlowLoris

	// NumServiceKinds is the number of service fault kinds.
	NumServiceKinds
)

// String returns the kind name.
func (k ServiceKind) String() string {
	switch k {
	case ServerRestart:
		return "server-restart"
	case ConnReset:
		return "conn-reset"
	case SlowLoris:
		return "slow-loris"
	default:
		return fmt.Sprintf("ServiceKind(%d)", int(k))
	}
}

// ServiceEvent is one service fault window, active for elapsed times in
// [Start, End) measured from the run's beginning. The schedule is
// clock-agnostic: a virtual-time corpus and a host-time run read the
// same windows.
type ServiceEvent struct {
	Kind       ServiceKind
	Start, End time.Duration
}

// Covers reports whether the event is active at elapsed time now.
func (e *ServiceEvent) Covers(now time.Duration) bool {
	return now >= e.Start && now < e.End
}

// ServiceSchedule is a seeded set of service fault windows.
type ServiceSchedule struct {
	Seed   uint64
	Events []ServiceEvent
}

// ClearTime returns the instant the last window closes (zero when
// empty); after it the client/server pair must converge back to healthy
// service.
func (s ServiceSchedule) ClearTime() time.Duration {
	var t time.Duration
	for i := range s.Events {
		if s.Events[i].End > t {
			t = s.Events[i].End
		}
	}
	return t
}

// GenerateServiceSchedule derives a deterministic service fault schedule
// from a seed, mirroring GenerateSchedule's envelope: 2–5 events, each
// starting in the first 60% of horizon and closed by 80% of it, so every
// run ends with a convergence window in which queries must succeed
// again. ServerRestart windows are kept short (≤ horizon/5) so a restart
// always has time to come back.
func GenerateServiceSchedule(seed uint64, horizon time.Duration) ServiceSchedule {
	if horizon <= 0 {
		horizon = 2 * time.Second
	}
	state := seed
	next := func() uint64 {
		state = splitmix64(state)
		return state
	}
	n := 2 + int(next()%4)
	sched := ServiceSchedule{Seed: seed, Events: make([]ServiceEvent, 0, n)}
	latest := horizon * 4 / 5
	for i := 0; i < n; i++ {
		ev := ServiceEvent{Kind: ServiceKind(next() % uint64(NumServiceKinds))}
		ev.Start = time.Duration(next() % uint64(horizon*3/5))
		maxDur := horizon / 4
		if ev.Kind == ServerRestart {
			maxDur = horizon / 5
		}
		dur := horizon/50 + time.Duration(next()%uint64(maxDur))
		ev.End = ev.Start + dur
		if ev.End > latest {
			ev.End = latest
		}
		if ev.End <= ev.Start {
			ev.Start = latest - horizon/50
			ev.End = latest
		}
		sched.Events = append(sched.Events, ev)
	}
	return sched
}

// FleetEvent is one service fault window aimed at a specific shard of a
// simulated cluster: the same network/process fault classes, scoped to
// the shard whose rcrd server they hit.
type FleetEvent struct {
	// Shard indexes the target shard in [0, FleetSchedule.Shards).
	Shard int
	ServiceEvent
}

// FleetSchedule is a seeded set of per-shard service fault windows for
// a fleet soak (internal/cluster).
type FleetSchedule struct {
	Seed   uint64
	Shards int
	Events []FleetEvent
}

// ClearTime returns the instant the last window closes (zero when
// empty); after it the fleet must converge back to healthy aggregation.
func (s FleetSchedule) ClearTime() time.Duration {
	var t time.Duration
	for i := range s.Events {
		if s.Events[i].End > t {
			t = s.Events[i].End
		}
	}
	return t
}

// ActiveOn returns the kinds active on one shard at elapsed time now.
func (s FleetSchedule) ActiveOn(shard int, now time.Duration) []ServiceKind {
	var out []ServiceKind
	for i := range s.Events {
		if s.Events[i].Shard == shard && s.Events[i].Covers(now) {
			out = append(out, s.Events[i].Kind)
		}
	}
	return out
}

// GenerateFleetSchedule derives a deterministic fleet fault schedule
// from a seed. The event count scales with the fleet — roughly one
// fault per four shards, at least three — so an N=64 soak stays genuinely
// chaotic while N=8 stays debuggable. The envelope mirrors
// GenerateServiceSchedule: every window starts in the first 60% of
// horizon and closes by 80% of it, restarts kept short enough to come
// back, so the run always ends with a fleet-wide convergence window.
func GenerateFleetSchedule(seed uint64, shards int, horizon time.Duration) FleetSchedule {
	if shards < 1 {
		shards = 1
	}
	if horizon <= 0 {
		horizon = 2 * time.Second
	}
	state := seed
	next := func() uint64 {
		state = splitmix64(state)
		return state
	}
	n := 3 + int(next()%uint64(shards/4+2))
	sched := FleetSchedule{Seed: seed, Shards: shards, Events: make([]FleetEvent, 0, n)}
	latest := horizon * 4 / 5
	for i := 0; i < n; i++ {
		ev := FleetEvent{
			Shard: int(next() % uint64(shards)),
			ServiceEvent: ServiceEvent{
				Kind: ServiceKind(next() % uint64(NumServiceKinds)),
			},
		}
		ev.Start = time.Duration(next() % uint64(horizon*3/5))
		maxDur := horizon / 4
		if ev.Kind == ServerRestart {
			maxDur = horizon / 5
		}
		dur := horizon/50 + time.Duration(next()%uint64(maxDur))
		ev.End = ev.Start + dur
		if ev.End > latest {
			ev.End = latest
		}
		if ev.End <= ev.Start {
			ev.Start = latest - horizon/50
			ev.End = latest
		}
		sched.Events = append(sched.Events, ev)
	}
	return sched
}

package faults

import (
	"fmt"
	"slices"
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

// ServiceEvent is one service fault window on one shard's rcrd server,
// active for elapsed times measured from the run's beginning. The
// schedule is clock-agnostic: a virtual-time corpus and a host-time run
// read the same windows.
type ServiceEvent struct {
	// Shard indexes the target shard in [0, FleetSchedule.Shards).
	Shard int
	Kind  ServiceKind
	Window
}

// FleetSchedule is a seeded set of per-shard service fault windows: a
// whole fleet's in the plain and HA cluster corpora, or one daemon's
// (Shards 1) in the client corpus.
type FleetSchedule struct {
	Seed   uint64
	Shards int
	Events []ServiceEvent
}

// ActiveOn reports whether a fault of kind is active on shard at elapsed
// time now.
func (s FleetSchedule) ActiveOn(shard int, kind ServiceKind, now time.Duration) bool {
	return slices.ContainsFunc(s.Events, func(ev ServiceEvent) bool {
		return ev.Shard == shard && ev.Kind == kind && ev.Covers(now)
	})
}

// GenerateServiceSchedule derives one rcrd daemon's service fault
// schedule from a seed: 2–5 events on its one shard.
func GenerateServiceSchedule(seed uint64, horizon time.Duration) FleetSchedule {
	s := &stream{seed}
	n := 2 + int(s.next()%4)
	return FleetSchedule{Seed: seed, Shards: 1, Events: s.serviceEvents(n, 0, tierHorizon(horizon, 2*time.Second))}
}

// GenerateFleetSchedule derives a deterministic fleet fault schedule
// from a seed. The event count scales with the fleet — roughly one
// fault per four shards, at least three — so an N=64 soak stays genuinely
// chaotic while N=8 stays debuggable.
func GenerateFleetSchedule(seed uint64, shards int, horizon time.Duration) FleetSchedule {
	shards = max(shards, 1)
	s := &stream{seed}
	n := 3 + int(s.next()%uint64(shards/4+2))
	return FleetSchedule{Seed: seed, Shards: shards, Events: s.serviceEvents(n, shards, tierHorizon(horizon, 2*time.Second))}
}

// serviceEvents draws n service fault windows in the shared envelope,
// each on a shard drawn first (none is drawn for shards == 0, the one
// daemon of a service schedule). ServerRestart windows last less than
// horizon/50 + horizon/5, short enough that a restart always has time to
// come back.
func (s *stream) serviceEvents(n, shards int, horizon time.Duration) []ServiceEvent {
	events := make([]ServiceEvent, n)
	for i := range events {
		ev := &events[i]
		if shards > 0 {
			ev.Shard = int(s.next() % uint64(shards))
		}
		ev.Kind = ServiceKind(s.next() % uint64(NumServiceKinds))
		maxDur := horizon / 4
		if ev.Kind == ServerRestart {
			maxDur = horizon / 5
		}
		ev.Window = s.window(horizon, maxDur)
	}
	return events
}

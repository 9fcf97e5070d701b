package faults

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// WAN-tier faults target the control plane *between* redundant
// aggregators and the shard fleet, rather than one shard's local IPC
// path: asymmetric network partitions, added latency, leader kills, and
// split-brain windows in which a demoted leader's writes stay in flight
// and arrive late. They layer on top of a FleetSchedule — the shard-
// local chaos keeps running underneath while the WAN tier degrades the
// aggregators' view of it (docs/robustness.md).

// WANKind enumerates the WAN-tier fault classes.
type WANKind int

// WAN fault kinds.
const (
	// LeaderKill crashes the current leader replica at the window start;
	// the replica is rebuilt (fresh process state, same identity) at the
	// window end. Exercises election, fencing and assignment replay.
	LeaderKill WANKind = iota
	// NetPartition severs one aggregator's path to one shard (or the
	// whole fleet): writes fail fast, subscriptions stall, or both,
	// depending on the partition's direction.
	NetPartition
	// NetLatency delays one aggregator's cap writes to one shard by the
	// event's Delay without dropping them.
	NetLatency
	// SplitBrain holds one aggregator's cap writes in flight for the
	// whole window and delivers them all when it closes — the canonical
	// stale-leader scenario the fencing epoch exists to defeat.
	SplitBrain

	// NumWANKinds is the number of WAN fault kinds.
	NumWANKinds
)

// String returns the kind name.
func (k WANKind) String() string {
	switch k {
	case LeaderKill:
		return "leader-kill"
	case NetPartition:
		return "net-partition"
	case NetLatency:
		return "net-latency"
	case SplitBrain:
		return "split-brain"
	default:
		return fmt.Sprintf("WANKind(%d)", int(k))
	}
}

// PartitionDir scopes which direction of a NetPartition is severed —
// asymmetric partitions (writes fail while deltas still flow, or the
// reverse) are exactly the cases that distinguish a fenced control
// plane from a naive one.
type PartitionDir int

// Partition directions.
const (
	// DirBoth severs cap writes and delta subscriptions.
	DirBoth PartitionDir = iota
	// DirWrite severs only the cap-write path; the aggregator still sees
	// fresh deltas from the shard it cannot actuate.
	DirWrite
	// DirSub severs only the subscription path; the aggregator can still
	// write caps to a shard it believes unhealthy.
	DirSub

	// NumPartitionDirs is the number of partition directions.
	NumPartitionDirs
)

// String returns the direction name.
func (d PartitionDir) String() string {
	switch d {
	case DirBoth:
		return "both"
	case DirWrite:
		return "write"
	case DirSub:
		return "sub"
	default:
		return fmt.Sprintf("PartitionDir(%d)", int(d))
	}
}

// WANEvent is one WAN-tier fault window, active for host times in
// [Start, End) from the run's beginning.
type WANEvent struct {
	// Agg indexes the target aggregator replica. For LeaderKill it is
	// advisory only — the harness resolves the kill against whichever
	// replica actually leads when the window opens.
	Agg int
	// Shard indexes the target shard; -1 targets the whole fleet.
	Shard int
	Kind  WANKind
	// Dir scopes NetPartition; ignored for other kinds.
	Dir PartitionDir
	// Delay is the added write latency for NetLatency; ignored for
	// other kinds.
	Delay      time.Duration
	Start, End time.Duration
}

// Covers reports whether the event is active at elapsed host time now.
func (e *WANEvent) Covers(now time.Duration) bool {
	return now >= e.Start && now < e.End
}

// hits reports whether the event targets the given aggregator and shard.
func (e *WANEvent) hits(agg, shard int) bool {
	return e.Agg == agg && (e.Shard < 0 || e.Shard == shard)
}

// WANSchedule is a seeded set of WAN fault windows over a fleet of
// aggregator replicas.
type WANSchedule struct {
	Seed     uint64
	Replicas int
	Shards   int
	Events   []WANEvent
}

// ClearTime returns the instant the last window closes (zero when
// empty); after it the control plane must converge back to exactly one
// leader driving the fleet.
func (s WANSchedule) ClearTime() time.Duration {
	var t time.Duration
	for i := range s.Events {
		if s.Events[i].End > t {
			t = s.Events[i].End
		}
	}
	return t
}

// Kills returns the LeaderKill windows in start order.
func (s WANSchedule) Kills() []WANEvent {
	var out []WANEvent
	for i := range s.Events {
		if s.Events[i].Kind == LeaderKill {
			out = append(out, s.Events[i])
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Start < out[j-1].Start; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// GenerateWANSchedule derives a deterministic WAN fault schedule from a
// seed, mirroring GenerateFleetSchedule's envelope: every window starts
// in the first 60% of horizon and closes by 80% of it, so the run ends
// with a convergence window. Two extra rules keep the schedule
// survivable: LeaderKill windows never overlap each other (there is
// always a live standby to promote — with a two-replica control plane
// overlapping kills would leave nobody to elect), and every schedule
// contains at least one LeaderKill so the hand-off path is always
// exercised.
func GenerateWANSchedule(seed uint64, replicas, shards int, horizon time.Duration) WANSchedule {
	if replicas < 2 {
		replicas = 2
	}
	if shards < 1 {
		shards = 1
	}
	if horizon <= 0 {
		horizon = 2 * time.Second
	}
	state := splitmix64(seed ^ 0x57a1e1eade5) // distinct stream from the fleet tier
	next := func() uint64 {
		state = splitmix64(state)
		return state
	}
	n := 3 + int(next()%uint64(replicas+shards/8+2))
	sched := WANSchedule{Seed: seed, Replicas: replicas, Shards: shards, Events: make([]WANEvent, 0, n+1)}
	latest := horizon * 4 / 5
	clampWindow := func(ev *WANEvent, maxDur time.Duration) {
		ev.Start = time.Duration(next() % uint64(horizon*3/5))
		dur := horizon/50 + time.Duration(next()%uint64(maxDur))
		ev.End = ev.Start + dur
		if ev.End > latest {
			ev.End = latest
		}
		if ev.End <= ev.Start {
			ev.Start = latest - horizon/50
			ev.End = latest
		}
	}
	var kills []WANEvent
	overlapsKill := func(ev WANEvent) bool {
		for i := range kills {
			if ev.Start < kills[i].End && kills[i].Start < ev.End {
				return true
			}
		}
		return false
	}
	for i := 0; i < n; i++ {
		ev := WANEvent{
			Agg:   int(next() % uint64(replicas)),
			Shard: int(next()%uint64(shards+1)) - 1, // -1 = whole fleet
			Kind:  WANKind(next() % uint64(NumWANKinds)),
		}
		maxDur := horizon / 4
		if ev.Kind == LeaderKill {
			maxDur = horizon / 5
		}
		clampWindow(&ev, maxDur)
		switch ev.Kind {
		case LeaderKill:
			ev.Shard = -1 // kills are replica-wide by definition
			if overlapsKill(ev) {
				// Re-draw as a partition instead of risking a leaderless
				// fleet; determinism is preserved (same draw sequence).
				ev.Kind = NetPartition
				ev.Dir = PartitionDir(next() % uint64(NumPartitionDirs))
			} else {
				kills = append(kills, ev)
			}
		case SplitBrain:
			// Generated split-brain windows sever the whole replica: a
			// shard-scoped hold under a still-live lease could re-deliver
			// same-fence writes out of order, which is a transport the
			// fencing protocol does not claim to order. Replica-wide holds
			// are the classic scenario and always resolve through fences.
			ev.Shard = -1
		case NetPartition:
			ev.Dir = PartitionDir(next() % uint64(NumPartitionDirs))
		case NetLatency:
			ev.Delay = horizon/200 + time.Duration(next()%uint64(horizon/50))
		}
		sched.Events = append(sched.Events, ev)
	}
	if len(kills) == 0 {
		// Every WAN schedule must exercise the hand-off path at least
		// once: synthesize a short early kill.
		ev := WANEvent{Agg: int(next() % uint64(replicas)), Shard: -1, Kind: LeaderKill}
		clampWindow(&ev, horizon/5)
		sched.Events = append(sched.Events, ev)
	}
	return sched
}

// ErrPartitioned is the transport error a WANInjector returns for
// writes crossing an active NetPartition.
var ErrPartitioned = errors.New("faults: WAN partition: write dropped")

// ErrHeld is the transport error a WANInjector returns for writes
// captured by an active SplitBrain window — the caller sees a timeout;
// the write is delivered later by Flush.
var ErrHeld = errors.New("faults: split-brain: write held in flight")

// WANInjector evaluates a WANSchedule against live traffic. The harness
// wraps each replica's cap-write path in GateWrite and its subscription
// path in SubBlocked; Flush delivers writes a closed SplitBrain window
// held. All methods are safe for concurrent use.
type WANInjector struct {
	sched WANSchedule
	sleep func(time.Duration) // how a delayed writer waits, on the harness's clock

	mu       sync.Mutex
	held     []heldWrite
	dropped  uint64
	delayed  uint64
	captured uint64
	flushed  uint64
}

type heldWrite struct {
	end time.Duration // when the capturing window closes
	do  func() error
}

// NewWANInjector builds an injector for one schedule. sleep is called
// with the delay of a write that crosses a NetLatency window.
func NewWANInjector(sched WANSchedule, sleep func(time.Duration)) *WANInjector {
	return &WANInjector{sched: sched, sleep: sleep}
}

// GateWrite passes a cap write destined for shard from aggregator agg
// through the active WAN faults at elapsed time now: partitions drop it
// (ErrPartitioned), latency windows delay it, split-brain windows
// capture it for late delivery (ErrHeld) — in that precedence order, so
// a write both partitioned and held is simply dropped. Otherwise do()
// runs inline and its error is returned.
func (inj *WANInjector) GateWrite(agg, shard int, now time.Duration, do func() error) error {
	var delay time.Duration
	var holdUntil time.Duration
	hold := false
	for i := range inj.sched.Events {
		ev := &inj.sched.Events[i]
		if !ev.Covers(now) || !ev.hits(agg, shard) {
			continue
		}
		switch ev.Kind {
		case NetPartition:
			if ev.Dir == DirBoth || ev.Dir == DirWrite {
				inj.mu.Lock()
				inj.dropped++
				inj.mu.Unlock()
				return ErrPartitioned
			}
		case NetLatency:
			if ev.Delay > delay {
				delay = ev.Delay
			}
		case SplitBrain:
			hold = true
			if ev.End > holdUntil {
				holdUntil = ev.End
			}
		}
	}
	if hold {
		inj.mu.Lock()
		inj.held = append(inj.held, heldWrite{end: holdUntil, do: do})
		inj.captured++
		inj.mu.Unlock()
		return ErrHeld
	}
	if delay > 0 {
		inj.mu.Lock()
		inj.delayed++
		inj.mu.Unlock()
		inj.sleep(delay)
	}
	return do()
}

// SubBlocked reports whether aggregator agg's subscription to shard is
// severed at elapsed time now (NetPartition with DirBoth or DirSub).
func (inj *WANInjector) SubBlocked(agg, shard int, now time.Duration) bool {
	for i := range inj.sched.Events {
		ev := &inj.sched.Events[i]
		if ev.Kind == NetPartition && ev.Covers(now) && ev.hits(agg, shard) &&
			(ev.Dir == DirBoth || ev.Dir == DirSub) {
			return true
		}
	}
	return false
}

// Flush delivers every held write whose capturing window has closed by
// elapsed time now — the split-brain resolving, with the stale leader's
// in-flight writes finally landing. Returns how many were delivered.
// The fencing layer under test, not the injector, decides their fate.
func (inj *WANInjector) Flush(now time.Duration) int {
	inj.mu.Lock()
	var due []heldWrite
	rest := inj.held[:0]
	for _, hw := range inj.held {
		if hw.end <= now {
			due = append(due, hw)
		} else {
			rest = append(rest, hw)
		}
	}
	inj.held = rest
	inj.flushed += uint64(len(due))
	inj.mu.Unlock()
	for _, hw := range due {
		_ = hw.do()
	}
	return len(due)
}

// WANStats counts the injector's interventions.
type WANStats struct {
	Dropped  uint64 // writes failed by partitions
	Delayed  uint64 // writes slowed by latency windows
	Captured uint64 // writes held by split-brain windows
	Flushed  uint64 // held writes delivered late
}

// Stats returns a snapshot of the intervention counters.
func (inj *WANInjector) Stats() WANStats {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return WANStats{Dropped: inj.dropped, Delayed: inj.delayed, Captured: inj.captured, Flushed: inj.flushed}
}

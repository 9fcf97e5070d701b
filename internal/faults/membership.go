package faults

import (
	"fmt"
	"sort"
	"time"
)

// Membership-tier faults churn the fleet's *composition* while the
// fleet and WAN tiers keep degrading its transport: join storms, a
// joiner that crashes right after admission, voluntary drains racing
// leader kills, forced decommissions, and re-joins under a prior
// identity with a fresh incarnation. A MembershipSchedule is the
// deterministic op list a churn driver executes against the leader's
// registry (docs/robustness.md §Membership churn); the driver owns the
// actual shard processes — starting a server before its join, crashing
// it for OpJoinCrash, powering it off after a drain completes.

// MembershipOp enumerates the churn operations.
type MembershipOp int

// Membership churn operations.
const (
	// OpJoin admits a new shard: the driver starts its server, then
	// joins it; the member warms up at its floor and activates on its
	// first heartbeat.
	OpJoin MembershipOp = iota
	// OpJoinCrash admits a shard whose server crashes Dwell after
	// admission, before it ever heartbeats; the driver then forces it
	// out (decommission) another Dwell later — the operator resolving a
	// dead-on-arrival join.
	OpJoinCrash
	// OpDrain starts a voluntary departure: the member is pinned to its
	// floor, and once the registry marks it Drained (stepped down and
	// acked) the driver powers the server off and decommissions it.
	OpDrain
	// OpDecommission forces an active member out without ceremony — the
	// crash-style departure. The driver stops the server at the same
	// instant.
	OpDecommission
	// OpRejoin crashes a member and brings the same identity back:
	// decommission at At, then a fresh server and a re-join of the same
	// ID (new incarnation) Dwell later.
	OpRejoin

	// NumMembershipOps is the number of churn op kinds.
	NumMembershipOps
)

// String returns the op name.
func (o MembershipOp) String() string {
	switch o {
	case OpJoin:
		return "join"
	case OpJoinCrash:
		return "join-crash"
	case OpDrain:
		return "drain"
	case OpDecommission:
		return "decommission"
	case OpRejoin:
		return "rejoin"
	default:
		return fmt.Sprintf("MembershipOp(%d)", int(o))
	}
}

// MembershipEvent is one churn operation against one shard identity.
type MembershipEvent struct {
	// Shard is the target shard ID. For OpJoin and OpJoinCrash it is a
	// fresh identity; for the others it names a member the schedule
	// guarantees is in the fleet when the op fires.
	Shard int
	Op    MembershipOp
	// At is the elapsed host time the driver fires the op.
	At time.Duration
	// Dwell is the op's follow-up delay: crash-after-join and
	// forced-out for OpJoinCrash, the re-join gap for OpRejoin, the
	// drain-completion patience for OpDrain. Zero for the rest.
	Dwell time.Duration
}

// span is the op's window, [At, At+Dwell): ClearTime of a churn plan is
// the instant its last op, follow-ups included, has fired, after which
// the fleet must converge to its final composition.
func (e MembershipEvent) span() Window { return Window{e.At, e.At + e.Dwell} }

// MembershipSchedule is a seeded, deterministic churn plan: the fleet
// grows from Base members to Peak through join storms, churns through
// crashes, drains and re-joins, then drains back down toward Base.
type MembershipSchedule struct {
	Seed uint64
	// Base is the seed fleet size (IDs 0..Base-1, all active at start).
	Base int
	// Peak is the high-water fleet size the joins grow to.
	Peak int
	// Events in firing order (ties broken by generation order).
	Events []MembershipEvent
}

// FinalFleet replays the schedule and returns the IDs expected in the
// fleet once every op has resolved, sorted ascending — the churn
// soak's convergence target.
func (s MembershipSchedule) FinalFleet() []int {
	in := make(map[int]bool, s.Base)
	for id := 0; id < s.Base; id++ {
		in[id] = true
	}
	for _, ev := range s.Events {
		switch ev.Op {
		case OpJoin, OpRejoin:
			in[ev.Shard] = true
		case OpJoinCrash, OpDrain, OpDecommission:
			delete(in, ev.Shard)
		}
	}
	out := make([]int, 0, len(in))
	for id := range in {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// minChurnFleet is the floor the generator never shrinks the fleet
// below: the shard fleet doubles as the HA control plane's quorum, and
// a one-member fleet would make every lease write a majority — too
// degenerate to say anything.
const minChurnFleet = 2

// GenerateMembershipSchedule derives a deterministic churn plan from a
// seed. Every op resolves, Dwell included, by 4/5 of horizon, leaving a
// convergence tail as the other tiers do; it fires in the first 3/5 of
// horizon unless it must follow its target's join, which can push it up
// to horizon/50 past that. Generation is stateful — it tracks the
// fleet it is mutating — so drains and decommissions always target
// members that are actually present, joins always use fresh
// identities, and the fleet never shrinks below minChurnFleet.
func GenerateMembershipSchedule(seed uint64, base, peak int, horizon time.Duration) MembershipSchedule {
	base = max(base, minChurnFleet)
	peak = max(peak, base)
	horizon = tierHorizon(horizon, 2*time.Second)
	s := &stream{splitmix64(seed ^ 0x3e1b5a7c9d2f481)} // distinct stream from the other tiers
	sched := MembershipSchedule{Seed: seed, Base: base, Peak: peak}
	latest := horizon * 3 / 5
	resolve := horizon * 4 / 5
	// Live fleet the generator mutates; nextID hands out fresh
	// identities; joinAt remembers when each member joined so no later
	// op can fire before its target exists.
	fleet := make([]int, base)
	joinAt := make(map[int]time.Duration, peak)
	for i := range fleet {
		fleet[i] = i
	}
	nextID := base
	pick := func() (int, bool) {
		if len(fleet) <= minChurnFleet {
			return 0, false
		}
		i := int(s.next() % uint64(len(fleet)))
		id := fleet[i]
		fleet = append(fleet[:i], fleet[i+1:]...)
		return id, true
	}
	at := func(lo, hi time.Duration) time.Duration {
		if hi <= lo {
			return lo
		}
		return lo + time.Duration(s.next()%uint64(hi-lo))
	}
	// afterJoin pushes an op past its target's join, with headroom for
	// the join to have actually been admitted.
	afterJoin := func(t time.Duration, id int) time.Duration {
		if min := joinAt[id] + horizon/50; t < min {
			return min
		}
		return t
	}
	dwell := func(end time.Duration) time.Duration {
		d := horizon/100 + time.Duration(s.next()%uint64(horizon/20))
		if end+d > resolve {
			d = resolve - end
		}
		if d < 0 {
			d = 0
		}
		return d
	}
	// Phase 1 — grow to peak in join storms: bursts of up to four joins
	// at one instant, spread over the first 40% of horizon.
	growLo, growHi := horizon/20, horizon*2/5
	for nextID < peak {
		t := at(growLo, growHi)
		burst := 1 + int(s.next()%4)
		for b := 0; b < burst && nextID < peak; b++ {
			sched.Events = append(sched.Events, MembershipEvent{Shard: nextID, Op: OpJoin, At: t})
			fleet = append(fleet, nextID)
			joinAt[nextID] = t
			nextID++
		}
	}
	// Phase 2 — churn in the middle of the run, overlapping the WAN
	// tier's kills and partitions: dead-on-arrival joins, forced
	// removals, re-joins under prior identity, early drains.
	churn := 2 + int(s.next()%4)
	for i := 0; i < churn; i++ {
		t := at(horizon*3/10, latest)
		switch MembershipOp(s.next() % uint64(NumMembershipOps)) {
		case OpJoin:
			sched.Events = append(sched.Events, MembershipEvent{Shard: nextID, Op: OpJoin, At: t})
			fleet = append(fleet, nextID)
			joinAt[nextID] = t
			nextID++
		case OpJoinCrash:
			sched.Events = append(sched.Events, MembershipEvent{Shard: nextID, Op: OpJoinCrash, At: t, Dwell: dwell(t)})
			nextID++ // never enters the replayed fleet: crashes, forced out
		case OpDrain:
			if id, ok := pick(); ok {
				t = afterJoin(t, id)
				sched.Events = append(sched.Events, MembershipEvent{Shard: id, Op: OpDrain, At: t, Dwell: dwell(t)})
			}
		case OpDecommission:
			if id, ok := pick(); ok {
				sched.Events = append(sched.Events, MembershipEvent{Shard: id, Op: OpDecommission, At: afterJoin(t, id)})
			}
		case OpRejoin:
			// The re-joined life is deliberately left out of the pickable
			// fleet: no later op may race its second join. FinalFleet's
			// replay still counts it back in.
			if id, ok := pick(); ok {
				t = afterJoin(t, id)
				sched.Events = append(sched.Events, MembershipEvent{Shard: id, Op: OpRejoin, At: t, Dwell: dwell(t)})
			}
		}
	}
	// Phase 3 — drain back down toward base, never below the quorum
	// floor: the N→peak→N shape every churn soak must survive.
	for len(fleet) > base {
		id, ok := pick()
		if !ok {
			break
		}
		t := afterJoin(at(horizon*2/5, latest), id)
		sched.Events = append(sched.Events, MembershipEvent{Shard: id, Op: OpDrain, At: t, Dwell: dwell(t)})
	}
	sort.SliceStable(sched.Events, func(i, j int) bool { return sched.Events[i].At < sched.Events[j].At })
	return sched
}

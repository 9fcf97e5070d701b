package cluster

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Fleet membership (docs/cluster.md §Membership). The cluster tier was
// originally sized once at construction; Membership makes the fleet's
// composition a runtime variable with an explicit life cycle:
//
//	Joining ──first heartbeat──▶ Active ──Drain──▶ Draining
//	   │                            │                  │
//	   │                            │         stepped to floor, acked
//	   │                            │                  ▼
//	   └────────Decommission────────┴──────────▶    Drained
//	                                                   │
//	                                             Decommission
//	                                                   ▼
//	                                                 Left
//
// Every transition bumps the registry epoch, so the whole membership is
// an epoch-versioned record: the aggregator reconciles its book against
// it at each poll boundary, the HA leader replicates it to the shard
// guards as a CLSM frame (memwire.go), and a promoted standby adopts
// the committed record exactly as it adopts the cap assignment.
//
// Invariants the life cycle exists to protect:
//
//   - admission at the floor: a Joining member is budgeted its Floor
//     from the instant it is admitted, but receives no surplus and is
//     never declared lost inside its warm-up grace — silence from a
//     shard that has not yet heartbeat is expected, not a failure;
//   - conservation through drain: a Draining member is pinned to its
//     floor so the partitioner water-fills its surplus back to the
//     survivors, decreases before increases, and only once the member
//     has actually been stepped down and acked does it become Drained
//     (safe to power off);
//   - watts return only on removal: a Drained member still draws its
//     floor, so its floor stays in the book until Decommission — the
//     operator's assertion that the node is off — removes it. A Left
//     member is never written again and never assigned watts.
//
// Left members persist as tombstones so a re-join under a prior
// identity gets a fresh incarnation; the map is bounded by the number
// of distinct shard IDs ever used, not by churn volume.

// MemberState is one member's position in the membership life cycle.
type MemberState uint8

// Membership life-cycle states.
const (
	// MemberJoining: admitted, budgeted its floor, not yet heard from.
	MemberJoining MemberState = iota
	// MemberActive: heartbeating; participates in the surplus water-fill.
	MemberActive
	// MemberDraining: leaving voluntarily; pinned to its floor while the
	// surplus water-fills back to the survivors.
	MemberDraining
	// MemberDrained: stepped down to its floor and acked — safe to power
	// off. Still a member; its floor stays budgeted until decommission.
	MemberDrained
	// MemberLeft: removed. Never written, never budgeted; the ID is a
	// tombstone holding the incarnation high-water mark for re-joins.
	MemberLeft

	// NumMemberStates bounds the valid state values (wire validation).
	NumMemberStates
)

// String returns the state name.
func (s MemberState) String() string {
	switch s {
	case MemberJoining:
		return "joining"
	case MemberActive:
		return "active"
	case MemberDraining:
		return "draining"
	case MemberDrained:
		return "drained"
	case MemberLeft:
		return "left"
	default:
		return fmt.Sprintf("MemberState(%d)", int(s))
	}
}

// InFleet reports whether the state still occupies a slot in the
// aggregator's book (everything short of Left).
func (s MemberState) InFleet() bool { return s < MemberLeft }

// Member is one shard's membership entry.
type Member struct {
	ID int
	// Incarnation distinguishes successive lives of the same ID: a
	// re-join under a prior identity gets the tombstone's incarnation
	// plus one, so stale state from the previous life can never be
	// mistaken for the new one.
	Incarnation uint32
	State       MemberState
	Endpoint    ShardEndpoint
	// AdmittedAt is the host time of the (re-)join; the aggregator's
	// warm-up grace is measured from it.
	AdmittedAt time.Duration
}

// memMetrics is the registry's instrument set: empty until Instrument.
type memMetrics struct {
	joins     *telemetry.Counter
	drains    *telemetry.Counter
	decomms   *telemetry.Counter
	members   *telemetry.Gauge
	epochG    *telemetry.Gauge
	drainingG *telemetry.Gauge
}

// Membership is the fleet's epoch-versioned member registry. All
// methods are safe for concurrent use; the aggregator reconciles
// against it once per poll, admin ops mutate it from other goroutines.
type Membership struct {
	clock   func() time.Duration
	journal *telemetry.Journal
	met     *memMetrics

	mu      sync.Mutex
	epoch   uint64
	members map[int]*Member
}

// NewMembership builds a registry seeded with the given endpoints, all
// Active at incarnation 1, epoch 1. An empty seed is a valid empty
// fleet at epoch 1 (members join later). clock supplies host time for
// admission stamps; required.
func NewMembership(seed []ShardEndpoint, clock func() time.Duration) (*Membership, error) {
	if clock == nil {
		return nil, fmt.Errorf("cluster: membership requires a clock")
	}
	m := &Membership{clock: clock, met: &memMetrics{}, epoch: 1, members: make(map[int]*Member)}
	for _, ep := range seed {
		if _, dup := m.members[ep.ID]; dup {
			return nil, fmt.Errorf("cluster: duplicate member id %d in seed", ep.ID)
		}
		m.members[ep.ID] = &Member{ID: ep.ID, Incarnation: 1, State: MemberActive, Endpoint: ep}
	}
	return m, nil
}

// Instrument registers the cluster_member_* instruments.
func (m *Membership) Instrument(reg *telemetry.Registry) {
	m.met = &memMetrics{
		joins:     reg.Counter("cluster_member_joins_total"),
		drains:    reg.Counter("cluster_member_drains_total"),
		decomms:   reg.Counter("cluster_member_decommissions_total"),
		members:   reg.Gauge("cluster_members"),
		epochG:    reg.Gauge("cluster_membership_epoch"),
		drainingG: reg.Gauge("cluster_members_draining"),
	}
	m.mu.Lock()
	m.gaugesLocked()
	m.mu.Unlock()
}

// Journal routes member transition records to j.
func (m *Membership) Journal(j *telemetry.Journal) { m.journal = j }

func (m *Membership) record(kind, detail string) {
	m.journal.Record(telemetry.Decision{T: m.clock(), Kind: kind, Detail: detail})
}

// gaugesLocked refreshes the membership gauges. Called with mu held.
func (m *Membership) gaugesLocked() {
	inFleet, draining := 0, 0
	for _, mb := range m.members {
		if mb.State.InFleet() {
			inFleet++
		}
		if mb.State == MemberDraining {
			draining++
		}
	}
	m.met.members.Set(float64(inFleet))
	m.met.drainingG.Set(float64(draining))
	m.met.epochG.Set(float64(m.epoch))
}

// Epoch returns the registry's current epoch. Every mutation advances
// it, so an unchanged epoch means an unchanged membership.
func (m *Membership) Epoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// Get returns a copy of one member's entry.
func (m *Membership) Get(id int) (Member, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	mb, ok := m.members[id]
	if !ok {
		return Member{}, false
	}
	return *mb, true
}

// Members returns every entry still in the fleet (Joining through
// Drained), sorted by ID. Left tombstones are excluded.
func (m *Membership) Members() []Member {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Member, 0, len(m.members))
	for _, mb := range m.members {
		if mb.State.InFleet() {
			out = append(out, *mb)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Join admits a shard. A brand-new ID starts at incarnation 1; a
// re-join over a Left tombstone starts a fresh incarnation, so nothing
// learned about the previous life carries over. Joining an ID that is
// still in the fleet is an error — drain or decommission it first.
func (m *Membership) Join(ep ShardEndpoint) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	inc := uint32(1)
	if prev, ok := m.members[ep.ID]; ok {
		if prev.State.InFleet() {
			return fmt.Errorf("cluster: member %d is already in the fleet (%s)", ep.ID, prev.State)
		}
		inc = prev.Incarnation + 1
	}
	m.members[ep.ID] = &Member{
		ID: ep.ID, Incarnation: inc, State: MemberJoining,
		Endpoint: ep, AdmittedAt: m.clock(),
	}
	m.epoch++
	m.met.joins.Inc()
	m.gaugesLocked()
	m.record(telemetry.KindMemberJoined,
		fmt.Sprintf("member %d incarnation %d at %s (epoch %d)", ep.ID, inc, ep.Addr, m.epoch))
	return nil
}

// Activate promotes a Joining member to Active — the aggregator calls
// it on the member's first observed heartbeat. A no-op in any other
// state (the record may have been adopted mid-transition).
func (m *Membership) Activate(id int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	mb, ok := m.members[id]
	if !ok || mb.State != MemberJoining {
		return
	}
	mb.State = MemberActive
	m.epoch++
	m.gaugesLocked()
	m.record(telemetry.KindMemberActivated,
		fmt.Sprintf("member %d incarnation %d heartbeating (epoch %d)", id, mb.Incarnation, m.epoch))
}

// Drain begins a voluntary departure: the member is pinned to its
// floor and its surplus water-fills back to the survivors. Only a
// Joining or Active member can start draining.
func (m *Membership) Drain(id int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	mb, ok := m.members[id]
	if !ok || mb.State == MemberLeft {
		return fmt.Errorf("cluster: member %d is not in the fleet", id)
	}
	if mb.State == MemberDraining || mb.State == MemberDrained {
		return fmt.Errorf("cluster: member %d is already draining (%s)", id, mb.State)
	}
	mb.State = MemberDraining
	m.epoch++
	m.met.drains.Inc()
	m.gaugesLocked()
	m.record(telemetry.KindMemberDrained,
		fmt.Sprintf("member %d drain requested (epoch %d)", id, m.epoch))
	return nil
}

// CompleteDrain marks a Draining member Drained — the aggregator calls
// it once the member's applied cap has been stepped down to its floor
// and acked. The member's floor stays budgeted until Decommission.
func (m *Membership) CompleteDrain(id int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	mb, ok := m.members[id]
	if !ok || mb.State != MemberDraining {
		return
	}
	mb.State = MemberDrained
	m.epoch++
	m.gaugesLocked()
	m.record(telemetry.KindMemberDrained,
		fmt.Sprintf("member %d stepped to floor, safe to power off (epoch %d)", id, m.epoch))
}

// Decommission removes a member from the fleet entirely. This is the
// operator's assertion that the node is powered off (or being forced
// out after a crash): only at this point do the member's watts return
// to the pool. The ID becomes a tombstone; re-joining it later starts
// a fresh incarnation.
func (m *Membership) Decommission(id int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	mb, ok := m.members[id]
	if !ok || mb.State == MemberLeft {
		return fmt.Errorf("cluster: member %d is not in the fleet", id)
	}
	mb.State = MemberLeft
	m.epoch++
	m.met.decomms.Inc()
	m.gaugesLocked()
	m.record(telemetry.KindMemberDecommissioned,
		fmt.Sprintf("member %d incarnation %d removed (epoch %d)", id, mb.Incarnation, m.epoch))
	return nil
}

// Record exports the registry as an epoch-versioned membership record,
// tombstones included — a re-joining ID's incarnation must survive
// replication, or an adopting leader could resurrect a stale life.
func (m *Membership) Record() MembershipRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec := MembershipRecord{Now: m.clock(), Epoch: m.epoch, Members: make([]MemberRecord, 0, len(m.members))}
	for _, mb := range m.members {
		rec.Members = append(rec.Members, MemberRecord{
			ID:          uint16(mb.ID),
			Incarnation: mb.Incarnation,
			State:       mb.State,
			Network:     mb.Endpoint.Network,
			Addr:        mb.Endpoint.Addr,
		})
	}
	sort.Slice(rec.Members, func(i, j int) bool { return rec.Members[i].ID < rec.Members[j].ID })
	return rec
}

// Adopt replaces the registry's whole content with a committed record —
// the promoted leader's hand-off path, mirroring how it adopts the cap
// assignment. The caller decides authority (fence then epoch order,
// ha.go); Adopt itself is unconditional. The local epoch never
// regresses and always moves: a replica that advanced its registry with
// ops that were never committed (demoted before replication) may later
// adopt an older committed epoch, and an epoch that ran backwards could
// collide with a number the reconciler has already seen — same epoch,
// different content — leaving the book stale. Bumping past both
// lineages makes every adoption visible to the reconciler and makes the
// adopting leader re-replicate the record under its own fence. Joining
// members' warm-up grace restarts from now: the adopting replica has no
// idea how long they have been silent, and a false lost-verdict is the
// failure mode the grace exists to prevent.
func (m *Membership) Adopt(rec MembershipRecord) {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.clock()
	if rec.Epoch > m.epoch {
		m.epoch = rec.Epoch
	}
	m.epoch++
	m.members = make(map[int]*Member, len(rec.Members))
	for _, mr := range rec.Members {
		mb := &Member{
			ID:          int(mr.ID),
			Incarnation: mr.Incarnation,
			State:       mr.State,
			Endpoint:    ShardEndpoint{ID: int(mr.ID), Network: mr.Network, Addr: mr.Addr},
		}
		if mr.State == MemberJoining {
			mb.AdmittedAt = now
		}
		m.members[mb.ID] = mb
	}
	m.gaugesLocked()
	m.record(telemetry.KindMembershipAdopted,
		fmt.Sprintf("committed membership epoch %d adopted: %d members", rec.Epoch, len(rec.Members)))
}

package cluster

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/rcr"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// SnapshotSource serves one slot's freshest shard snapshot, or an error
// while there is none to act on. It must not block.
type SnapshotSource func() (rcr.Snapshot, error)

// shardState is the core's per-shard bookkeeping. Slots are created and
// retired by reconcile as the membership registry changes; a slot is
// identified by (id, incarnation), so a member replaced under its prior
// identity gets a fresh slot with nothing carried over.
type shardState struct {
	latest SnapshotSource // handed over by the core's owner when the slot is created

	id         int
	inc        uint32        // membership incarnation this slot serves
	mstate     MemberState   // registry state at the last reconcile
	admittedAt time.Duration // host-time admission stamp (warm-up grace)
	stateEpoch uint64        // registry epoch of the member's last state change
	capLanded  bool          // a cap write landed on THIS incarnation's guard
	// residual is the guard's self-reported committed cap when it exceeds
	// the clamped book value — a re-joining member's previous life still
	// physically enforced until a this-life write lands. The partitioner
	// never sees it; it only pessimizes apply ORDER (the residue must be
	// stepped down before any survivor is raised) and the failed-decrease
	// blocking. Cleared the moment a cap write lands on this incarnation.
	residual units.Watts

	everSeen  bool
	lastBeat  float64       // last heartbeat value observed
	lastMove  time.Duration // host time the heartbeat last advanced
	epoch     uint32        // incarnation; bumps when the heartbeat runs backwards
	healthy   bool
	power     float64
	headroom  float64
	beatStamp time.Duration // virtual-time Updated of the newest heartbeat

	// Lease state passively observed through the shard's delta stream:
	// the fence guard mirrors fence/holder/expiry/applied-cap into the
	// shard blackboard (rcr.FenceGuard), so every standby replica knows
	// who leads and what assignment is committed without any extra
	// coordination traffic.
	obsFence  uint64
	obsExpiry time.Duration // host-time lease expiry reported by the shard
	obsCap    float64       // shard's last committed fenced cap
	obsHasCap bool

	// HA-only per-shard write tracking (ha.go); zero when cfg.HA is nil.
	// pendingCap/pendingSeq track the largest cap value of this fence's
	// writes that failed in transport and may still be in flight;
	// granted marks that the shard's guard has accepted this replica's
	// current fence; memAckFence/memAckEpoch are the freshest committed
	// membership the shard has acked, so the leader re-attaches the
	// frame only while a shard is behind.
	pendingCap  float64
	pendingSeq  uint64
	granted     bool
	memAckFence uint64
	memAckEpoch uint64
}

// aggMetrics is the aggregator's instrument set.
type aggMetrics struct {
	polls         *telemetry.Counter
	repartitions  *telemetry.Counter
	violations    *telemetry.Counter // conservation self-checks failed (must stay 0)
	shardRestarts *telemetry.Counter
	capErrors     *telemetry.Counter // SetCap pushes that failed
	capRetries    *telemetry.Counter // failed pushes retried immediately
	elections     *telemetry.Counter // lease elections won (HA)
	demotions     *telemetry.Counter // leaderships surrendered (HA)
	budgetW       *telemetry.Gauge
	capsSumW      *telemetry.Gauge
	powerW        *telemetry.Gauge
	unhealthy     *telemetry.Gauge
	warmingUp     *telemetry.Gauge
	isLeader      *telemetry.Gauge
}

// controlCore is the cluster control plane as a steppable state machine
// (docs/cluster.md §Core and driver): it observes every shard and
// re-partitions the global power budget once per Poll. Its job is to
// notice a shard has gone quiet, lend its share to the rest of the
// fleet, and give it back on recovery — all without ever letting the
// sum of applied caps exceed the budget.
//
// The fleet's composition is a runtime variable: every poll starts by
// reconciling the book against the membership registry, so members
// join at their floor (warm-up grace), drain by water-filling their
// surplus back to the survivors, and return their watts to the pool
// only at decommission.
//
// The core starts no goroutine, takes no lock, opens nothing and reads
// time only through cfg.Clock. A slot's observations come from the
// source its owner hands over when the slot is created (open; retire
// tells the owner the slot is gone), and the core acts only through its
// seams: SetCap, HA.WriteMem, the registry, the journal, the
// instruments. The owner serializes every call — Aggregator with its
// mutex, the scenario runner and the in-package harnesses by running one
// task at a time — which is all a helper's "Locked" suffix means here.
type controlCore struct {
	cfg     AggregatorConfig
	members *Membership
	met     *aggMetrics
	open    func(Member) (SnapshotSource, error)
	retire  func(id int)

	shards      []*shardState
	applied     []units.Watts
	reports     []NodeReport
	nextCaps    []units.Watts
	polls       uint64
	lastChange  uint64 // poll index of the last applied cap change
	restarts    uint64
	healthyN    int
	allExpected bool   // every member expected alive was healthy last poll
	memEpoch    uint64 // registry epoch the book was last reconciled to

	// Scratch reused across polls: apply order, and the guards' physical
	// caps the fenced push orders by (ha.go).
	order []int
	eff   []units.Watts

	// Cached encoding of the registry's current record (HA replication).
	memFrame        []byte
	memFrameEpoch   uint64
	memEpochScratch []uint64 // scratch for the quorum-epoch order statistic

	// HA replica state (ha.go); untouched when cfg.HA is nil.
	leader      bool
	fence       uint64        // this replica's fence while leading
	knownFence  uint64        // highest fence observed anywhere
	leaseUntil  time.Duration // this replica's lease validity while leading
	obsExpiry   time.Duration // freshest lease expiry observed fleet-wide
	candidateAt time.Duration // scheduled election instant (0: none)
	jitterState uint64
	replay      bool // promoted: re-assert the adopted assignment first
	elections   uint64
	demotions   uint64
	seq         uint64 // per-fence write sequence; reset on election
}

// newControlCore validates cfg and builds the core around its owner's
// slot hooks (retire may be nil). Caps start unassigned; the first Poll
// partitions and pushes them.
func newControlCore(cfg AggregatorConfig, open func(Member) (SnapshotSource, error), retire func(id int)) (*controlCore, error) {
	if cfg.Members == nil && len(cfg.Shards) == 0 {
		return nil, errors.New("cluster: aggregator requires at least one shard or a membership registry")
	}
	if cfg.Global <= 0 {
		return nil, fmt.Errorf("cluster: global budget %v must be positive", cfg.Global)
	}
	if cfg.Clock == nil {
		return nil, errors.New("cluster: aggregator requires a host clock")
	}
	if cfg.HA != nil {
		if cfg.HA.ID == 0 {
			return nil, errors.New("cluster: HA replica ID 0 is reserved")
		}
		if cfg.HA.WriteMem == nil {
			return nil, errors.New("cluster: HA requires a fenced WriteMem seam")
		}
	} else if cfg.SetCap == nil {
		return nil, errors.New("cluster: aggregator requires a SetCap seam")
	}
	if cfg.Floor <= 0 {
		cfg.Floor = 10
	}
	if cfg.Max <= 0 {
		cfg.Max = 200
	}
	if cfg.Max < cfg.Floor {
		// An inverted band is a configuration error, not something to
		// clamp silently: every shard would be pinned to its floor and the
		// water-fill could never distribute the surplus the caller asked
		// to budget.
		return nil, fmt.Errorf("cluster: cap band inverted: Max %v < Floor %v", cfg.Max, cfg.Floor)
	}
	if cfg.Period <= 0 {
		cfg.Period = 50 * time.Millisecond
	}
	if cfg.HealthHorizon <= 0 {
		cfg.HealthHorizon = 4 * cfg.Period
	}
	members := cfg.Members
	if members == nil {
		var err error
		if members, err = NewMembership(cfg.Shards, cfg.Clock); err != nil {
			return nil, err
		}
		members.Instrument(cfg.Telemetry)
		members.Journal(cfg.Journal)
	}
	if retire == nil {
		retire = func(int) {}
	}
	reg := cfg.Telemetry
	a := &controlCore{cfg: cfg, members: members, open: open, retire: retire, met: &aggMetrics{
		polls:         reg.Counter("cluster_polls_total"),
		repartitions:  reg.Counter("cluster_repartitions_total"),
		violations:    reg.Counter("cluster_conservation_violations_total"),
		shardRestarts: reg.Counter("cluster_shard_restarts_total"),
		capErrors:     reg.Counter("cluster_cap_push_errors_total"),
		capRetries:    reg.Counter("cluster_cap_retries_total"),
		elections:     reg.Counter("cluster_leader_elections_total"),
		demotions:     reg.Counter("cluster_leader_demotions_total"),
		budgetW:       reg.Gauge("cluster_budget_watts"),
		capsSumW:      reg.Gauge("cluster_caps_sum_watts"),
		powerW:        reg.Gauge("cluster_power_watts"),
		unhealthy:     reg.Gauge("cluster_unhealthy_shards"),
		warmingUp:     reg.Gauge("cluster_members_warming_up"),
		isLeader:      reg.Gauge("cluster_leader"),
	}}
	a.met.budgetW.Set(float64(cfg.Global))
	if cfg.HA != nil {
		a.jitterState = cfg.HA.JitterSeed ^ uint64(cfg.HA.ID)*0x9e3779b97f4a7c15
	}
	// First reconcile builds the initial book.
	if err := a.reconcileLocked(); err != nil {
		return nil, err
	}
	return a, nil
}

// reconcileLocked re-derives the core's book from the membership
// registry when the registry epoch has moved: retained members keep
// their slots (observed state, applied watts, HA grants), a replaced
// incarnation or brand-new member gets a fresh slot with a fresh
// source, and a decommissioned member's slot is retired — its owner
// told, its watts back in the pool the moment the next partition runs.
func (a *controlCore) reconcileLocked() error {
	epoch := a.members.Epoch()
	if epoch == a.memEpoch && a.shards != nil {
		return nil
	}
	mems := a.members.Members()
	prev := make(map[int]*shardState, len(a.shards))
	prevApplied := make(map[int]units.Watts, len(a.shards))
	for i, st := range a.shards {
		prev[st.id] = st
		prevApplied[st.id] = a.applied[i]
	}
	shards := make([]*shardState, 0, len(mems))
	applied := make([]units.Watts, 0, len(mems))
	for _, mb := range mems {
		if st, ok := prev[mb.ID]; ok && st.inc == mb.Incarnation {
			delete(prev, mb.ID)
			if st.mstate != mb.State {
				// The epoch that changed this member's state gates its cap
				// writes (ha.go): actuation waits until the change is
				// durable on a quorum of guards.
				st.stateEpoch = epoch
			}
			st.mstate = mb.State
			st.admittedAt = mb.AdmittedAt
			shards = append(shards, st)
			applied = append(applied, prevApplied[mb.ID])
			continue
		}
		if st, ok := prev[mb.ID]; ok {
			// Same ID, new incarnation: the previous life's slot carries
			// nothing over — not even its applied watts, which the new
			// partition re-derives from a zero baseline.
			delete(prev, mb.ID)
			a.retire(st.id)
		}
		latest, err := a.open(mb)
		if err != nil {
			return err
		}
		st := &shardState{
			latest:     latest,
			id:         mb.ID,
			inc:        mb.Incarnation,
			mstate:     mb.State,
			admittedAt: mb.AdmittedAt,
			stateEpoch: epoch,
		}
		shards = append(shards, st)
		applied = append(applied, 0)
	}
	for _, st := range prev {
		a.retire(st.id)
	}
	a.shards = shards
	a.applied = applied
	a.reports = make([]NodeReport, len(shards))
	a.nextCaps = a.nextCaps[:0]
	a.memEpoch = epoch
	return nil
}

// Poll runs one reconcile → observe → partition → push cycle: the
// deterministic unit its owner steps.
func (a *controlCore) Poll() {
	now := a.cfg.Clock()
	a.met.polls.Inc()
	if err := a.reconcileLocked(); err != nil {
		// A failed slot open leaves the book on the previous epoch; the
		// next poll retries.
		a.journal(telemetry.KindCapRetry, fmt.Sprintf("membership reconcile: %v", err))
	}
	totalPower := 0.0
	healthy, warming := 0, 0
	allExpected := true
	for i, st := range a.shards {
		wasHealthy := st.healthy
		snap, err := st.latest()
		if err == nil {
			a.observe(st, &snap, now)
		}
		// A shard is live while its heartbeat keeps moving in host time;
		// a never-seen shard is unhealthy from the start.
		st.healthy = st.everSeen && now-st.lastMove <= a.cfg.HealthHorizon
		if st.healthy {
			healthy++
			totalPower += st.power
			if st.mstate == MemberJoining && !a.replay && st.capLanded {
				// First life signs: promote the joiner. The registry bumps
				// its epoch, so replicas and the next reconcile see it.
				// Deferred until a cap write has landed on this incarnation
				// (and, under HA, no replay is pending): a re-joining
				// member's guard durably remembers a previous life's
				// committed cap — watts the fleet redistributed when it
				// departed — and every safeguard against re-adopting that
				// residue (the floor clamps in elect and pushFenced) is
				// keyed on the Joining state. Activating on health alone
				// would mark the member Active in the record while its
				// guard still reports the stale cap, and a successor
				// elected after a leader kill would adopt and re-commit it
				// on top of the redistribution.
				a.members.Activate(st.id)
				st.mstate = MemberActive
				st.stateEpoch = a.members.Epoch()
			}
		}
		inGrace := st.mstate == MemberJoining && now-st.admittedAt <= 2*a.cfg.HealthHorizon
		if inGrace && !st.healthy {
			warming++
		}
		if st.healthy != wasHealthy {
			kind := telemetry.KindShardRecovered
			if !st.healthy {
				kind = telemetry.KindShardLost
			}
			a.journal(kind, fmt.Sprintf("shard %d", st.id))
		}
		if !st.healthy && st.mstate != MemberDrained && !inGrace {
			allExpected = false
		}
		maxW := a.cfg.Max
		if st.mstate != MemberActive {
			// A leaver is pinned to its floor: the partitioner water-fills
			// its surplus back to the survivors, decreases first. A JOINER
			// is pinned too — admission is at the floor until Activate. The
			// pin is what makes a re-join conservation-safe: the member's
			// previous life's guard may still durably enforce a full share
			// whose watts the fleet redistributed when it departed, so its
			// first this-life write must be a step DOWN to the floor (a
			// decrease, ordered ahead of every survivor's raise) — never a
			// fresh full share granted on top of the redistribution.
			maxW = a.cfg.Floor
		}
		a.reports[i] = NodeReport{
			Headroom: st.headroom,
			Floor:    a.cfg.Floor,
			Max:      maxW,
			Healthy:  st.healthy,
		}
	}

	var changed bool
	if a.cfg.HA != nil {
		changed = a.haStep(now)
	} else if len(a.shards) > 0 {
		a.nextCaps = Partition(a.cfg.Global, a.reports, a.nextCaps)
		changed = a.push(a.nextCaps)
	}

	// A draining member whose committed cap has been stepped down to its
	// floor is safe to power off. Only an actuating aggregator may make
	// that call: a standby's book is an observation, not an ack.
	if a.cfg.HA == nil || a.leader {
		for i, st := range a.shards {
			if st.mstate == MemberDraining && float64(a.applied[i]) <= float64(a.cfg.Floor)+sumEps && a.applied[i] > 0 {
				a.members.CompleteDrain(st.id)
				st.mstate = MemberDrained
			}
		}
	}

	a.polls++
	if changed {
		a.lastChange = a.polls
	}
	a.healthyN = healthy
	a.allExpected = allExpected
	capsSum := float64(Sum(a.applied))

	a.met.capsSumW.Set(capsSum)
	a.met.powerW.Set(totalPower)
	a.met.unhealthy.Set(float64(len(a.shards) - healthy - warming))
	a.met.warmingUp.Set(float64(warming))
	if capsSum > float64(a.cfg.Global)+sumEps {
		a.met.violations.Inc()
	}
}

// observe folds one shard snapshot into its state: heartbeat movement
// (liveness and restart detection), per-shard power, and headroom
// derived from memory concurrency against the knee.
func (a *controlCore) observe(st *shardState, snap *rcr.Snapshot, now time.Duration) {
	var beat *rcr.MeterValue
	for j := range snap.System {
		m := &snap.System[j]
		switch m.Name {
		case rcr.MeterHeartbeat:
			beat = m
		case rcr.MeterFence:
			if f := uint64(m.Value); f > st.obsFence {
				st.obsFence = f
				st.obsExpiry = 0 // expiry below belongs to the new fence
			}
		case rcr.MeterLeaseExpiry:
			if e := time.Duration(m.Value * float64(time.Second)); e > st.obsExpiry {
				st.obsExpiry = e
			}
		case rcr.MeterFencedCap:
			st.obsCap, st.obsHasCap = m.Value, true
		}
	}
	if beat == nil {
		return // no sampler output yet
	}
	switch {
	case !st.everSeen:
		st.everSeen = true
		st.lastMove = now
	case beat.Value < st.lastBeat || (beat.Value == st.lastBeat && beat.Updated < st.beatStamp):
		// The heartbeat ran backwards: a fresh blackboard, i.e. a new
		// incarnation of the shard. Version space restarts with it.
		st.epoch++
		a.restarts++
		a.met.shardRestarts.Inc()
		a.journal(telemetry.KindShardRestarted,
			fmt.Sprintf("shard %d epoch %d, heartbeat %.0f -> %.0f", st.id, st.epoch, st.lastBeat, beat.Value))
		st.lastMove = now
	case beat.Value != st.lastBeat:
		st.lastMove = now
	}
	st.lastBeat = beat.Value
	st.beatStamp = beat.Updated

	power, conc := 0.0, 0.0
	for s := range snap.Sockets {
		for j := range snap.Sockets[s].Meters {
			m := &snap.Sockets[s].Meters[j]
			switch m.Name {
			case rcr.MeterPower:
				power += m.Value
			case rcr.MeterMemConcurrency:
				conc += m.Value
			}
		}
	}
	st.power = power
	if n := len(snap.Sockets); n > 0 {
		conc /= float64(n)
	}
	st.headroom = clampHeadroom(1 - conc/kneeRef)
}

// kneeRef is the per-socket memory-concurrency knee headroom is measured
// against: a shard saturating the knee is memory-bound (throttling is
// nearly free, extra power nearly useless), a shard far below it is
// compute-bound. 28 outstanding references is the M620's knee.
const kneeRef = 28

// push applies a new cap assignment through the SetCap seam in
// conservation-safe order and reports whether anything changed. A shard
// whose push fails keeps its previous applied value — the conservation
// invariant is judged against what was actually acknowledged.
func (a *controlCore) push(next []units.Watts) bool {
	changed := false
	blocked := false // a decrease failed; increases must wait a poll
	a.order = ApplyOrder(a.applied, next, a.order)
	for _, i := range a.order {
		if next[i] == a.applied[i] {
			continue
		}
		if blocked && next[i] > a.applied[i] {
			continue // the unacknowledged decrease still holds its watts
		}
		if err := a.cfg.SetCap(a.shards[i].id, next[i]); err != nil {
			// One bounded immediate retry: a transient drop on a decrease
			// would otherwise stall the whole decrease-before-increase
			// sequence for a full poll period.
			a.met.capRetries.Inc()
			a.journal(telemetry.KindCapRetry,
				fmt.Sprintf("shard %d cap %.1f W: %v", a.shards[i].id, float64(next[i]), err))
			err = a.cfg.SetCap(a.shards[i].id, next[i])
			if err != nil {
				a.met.capErrors.Inc()
				if next[i] < a.applied[i] {
					blocked = true
				}
				continue
			}
		}
		a.applied[i] = next[i]
		a.shards[i].capLanded = true
		changed = true
	}
	if changed {
		a.met.repartitions.Inc()
		a.journal(telemetry.KindRepartition,
			fmt.Sprintf("caps sum %.1f W of %.1f W budget", float64(Sum(a.applied)), float64(a.cfg.Global)))
	}
	return changed
}

func (a *controlCore) journal(kind, detail string) {
	a.cfg.Journal.Record(telemetry.Decision{T: a.cfg.Clock(), Kind: kind, Detail: detail})
}

// AggregatorStatus is a point-in-time view of the aggregator.
type AggregatorStatus struct {
	Polls         uint64
	LastChange    uint64 // poll index of the last cap change (0: never)
	Healthy       int
	Shards        int
	CapsSum       units.Watts
	ShardRestarts uint64
	Caps          []units.Watts

	// Membership composition at the last reconcile.
	MembershipEpoch uint64
	Joining         int
	Draining        int
	Drained         int

	// HA replica state; zero values for single-aggregator deployments.
	Leader    bool
	Fence     uint64
	Elections uint64
	Demotions uint64
}

// Status snapshots the core's bookkeeping.
func (a *controlCore) Status() AggregatorStatus {
	s := AggregatorStatus{
		Polls:           a.polls,
		LastChange:      a.lastChange,
		Healthy:         a.healthyN,
		Shards:          len(a.shards),
		CapsSum:         Sum(a.applied),
		ShardRestarts:   a.restarts,
		Caps:            append([]units.Watts(nil), a.applied...),
		MembershipEpoch: a.memEpoch,
		Leader:          a.leader,
		Fence:           a.fence,
		Elections:       a.elections,
		Demotions:       a.demotions,
	}
	for _, st := range a.shards {
		switch st.mstate {
		case MemberJoining:
			s.Joining++
		case MemberDraining:
			s.Draining++
		case MemberDrained:
			s.Drained++
		}
	}
	return s
}

// ConvergedSince reports whether the fleet has settled: every member
// expected to be alive (everything short of Drained, with Joining
// members' warm-up grace honoured) is healthy and no cap change has
// landed during the last k polls. The soak gate uses it after the
// fault schedule clears.
func (a *controlCore) ConvergedSince(k uint64) bool {
	return a.allExpected && a.polls >= a.lastChange+k
}

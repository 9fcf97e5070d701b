package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/rcr"
	"repro/internal/resilience"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// ShardEndpoint locates one shard's rcrd server.
type ShardEndpoint struct {
	ID      int
	Network string // "unix" or "tcp"
	Addr    string
}

// Meter names the aggregator writes into the cluster blackboard, one
// socket domain per shard (docs/cluster.md). Shard power reuses
// rcr.MeterPower so existing tooling reads it unchanged.
const (
	// MeterHeadroom is a shard's derived scaling headroom in [0,1].
	MeterHeadroom = "headroom"
	// MeterCap is a shard's currently applied power cap in Watts.
	MeterCap = "cap"
	// MeterBudget is the global watt budget (system scope).
	MeterBudget = "budget"
	// MeterHealthy is a shard's liveness as 0/1.
	MeterHealthy = "healthy"
)

// AggregatorConfig tunes an Aggregator.
type AggregatorConfig struct {
	// Shards seeds the fleet's rcrd endpoints. Ignored when Members is
	// set; otherwise at least one is required and the aggregator builds
	// its own registry with every seed endpoint Active.
	Shards []ShardEndpoint
	// Members, when non-nil, is the fleet's membership registry: the
	// aggregator reconciles its book against it at every poll boundary,
	// so joins, drains and decommissions applied to the registry take
	// effect within one period. An initially empty registry is valid —
	// the fleet grows by Join. The caller owns instrumenting and
	// journaling the registry (Membership.Instrument/Journal).
	Members *Membership
	// Global is the fleet-wide power budget. Required positive.
	Global units.Watts
	// Floor and Max bound every shard's assignment (per-shard floors are
	// uniform at this tier; heterogeneous fleets would move them into
	// ShardEndpoint). Floor zero selects 10 W; Max zero selects 200 W.
	Floor units.Watts
	Max   units.Watts
	// Period is the host-time cadence of the poll/repartition loop.
	// Zero selects 50 ms.
	Period time.Duration
	// HealthHorizon is how long a shard's heartbeat may sit still (in
	// host time) before the shard is declared lost and its surplus is
	// redistributed. Zero selects 4×Period.
	HealthHorizon time.Duration
	// WarmupGrace is how long a Joining member may stay silent after
	// admission before it counts against the fleet's health gauges. A
	// joiner is budgeted its floor from admission but has not booted its
	// sampler yet — silence inside the grace is expected, not an outage.
	// Zero selects 2×HealthHorizon.
	WarmupGrace time.Duration
	// KneeRef is the per-socket memory-concurrency knee used to derive
	// headroom: a shard saturating the knee is memory-bound (throttling
	// is nearly free, extra power nearly useless), a shard far below it
	// is compute-bound. Zero selects 28, the M620 preset's knee.
	KneeRef float64
	// Clock supplies host time. Required. The shards' own snapshots run
	// on their private virtual clocks, which advance at unrelated rates —
	// the aggregator therefore judges staleness by heartbeat *movement*
	// against this clock, never by comparing snapshot timestamps across
	// timebases.
	Clock func() time.Duration
	// SetCap pushes an assignment down into one shard's enforcement
	// loop (maestro.PowerCap.SetCap behind the fleet seam). Required
	// unless HA is set — the HA control plane writes caps through the
	// fenced HA.WriteCap seam instead.
	SetCap func(shard int, cap units.Watts) error
	// HA, when non-nil, runs this aggregator as one replica of a
	// redundant control plane (ha.go): it only pushes caps while holding
	// the fleet lease, renews that lease through fenced cap writes, and
	// stands by — electing itself with a fresh fence after the observed
	// lease expires — otherwise.
	HA *HAConfig
	// Tune, when non-nil, adjusts each shard client's config before the
	// client is built — the test seam for scripted transports and faster
	// backoff.
	Tune func(shard int, cfg *resilience.ClientConfig)
	// Telemetry receives the cluster_* instruments; Journal receives
	// repartition and shard-transition records. Both optional.
	Telemetry *telemetry.Registry
	Journal   *telemetry.Journal
}

// shardState is the aggregator's per-shard bookkeeping, owned by the
// poll goroutine. Slots are created and retired by reconcile as the
// membership registry changes; a slot is identified by (id,
// incarnation), so a member replaced under its prior identity gets a
// fresh slot with nothing carried over.
type shardState struct {
	client *resilience.Client

	id         int
	ep         ShardEndpoint
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

	// subCancel tears down this slot's subscription goroutine when the
	// member is decommissioned or replaced; nil until Run starts it.
	subCancel context.CancelFunc

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

// Aggregator subscribes to every shard's delta stream, rolls the fleet
// up into a cluster blackboard, and re-partitions the global power
// budget each period. Shard outages are ridden out by the underlying
// resilience.Client (failover, resubscribe, last-known-good cache);
// the aggregator's own job is to notice a shard has gone quiet, lend
// its share to the rest of the fleet, and give it back on recovery —
// all without ever letting the sum of applied caps exceed the budget.
//
// The fleet's composition is a runtime variable: every poll starts by
// reconciling the book against the membership registry, so members
// join at their floor (warm-up grace), drain by water-filling their
// surplus back to the survivors, and return their watts to the pool
// only at decommission.
type Aggregator struct {
	cfg     AggregatorConfig
	members *Membership
	met     *aggMetrics

	// mu guards everything below: Poll (single driver) mutates under it,
	// Status/Frame/ConvergedSince read under it.
	mu           sync.Mutex
	board        *rcr.Blackboard
	boardSockets int
	shards       []*shardState
	applied      []units.Watts
	reports      []NodeReport
	nextCaps     []units.Watts
	polls        uint64
	lastChange   uint64 // poll index of the last applied cap change
	restarts     uint64
	healthyN     int
	allExpected  bool   // every member expected alive was healthy last poll
	memEpoch     uint64 // registry epoch the book was last reconciled to

	// runCtx is Run's context while Run is active; reconcile derives
	// per-slot subscription contexts from it so a decommissioned
	// member's stream tears down without stopping the fleet. subWG
	// tracks every subscription goroutine ever started.
	runCtx context.Context
	subWG  sync.WaitGroup

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

// NewAggregator validates cfg and builds the aggregator. Caps start
// unassigned; the first Poll partitions and pushes them.
func NewAggregator(cfg AggregatorConfig) (*Aggregator, error) {
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
		if cfg.HA.WriteCap == nil && cfg.HA.WriteMem == nil {
			return nil, errors.New("cluster: HA requires a fenced WriteCap or WriteMem seam")
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
	if cfg.WarmupGrace <= 0 {
		cfg.WarmupGrace = 2 * cfg.HealthHorizon
	}
	if cfg.KneeRef <= 0 {
		cfg.KneeRef = 28
	}
	members := cfg.Members
	if members == nil {
		var err error
		if members, err = NewMembership(cfg.Shards, cfg.Clock); err != nil {
			return nil, err
		}
		if cfg.Telemetry != nil {
			members.Instrument(cfg.Telemetry)
		}
		members.Journal(cfg.Journal)
	}
	a := &Aggregator{cfg: cfg, members: members}
	if reg := cfg.Telemetry; reg != nil {
		a.met = &aggMetrics{
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
		}
		a.met.budgetW.Set(float64(cfg.Global))
	}
	if cfg.HA != nil {
		a.jitterState = cfg.HA.JitterSeed ^ uint64(cfg.HA.ID)*0x9e3779b97f4a7c15
	}
	// First reconcile builds the initial book; subscriptions start when
	// Run provides a context.
	a.mu.Lock()
	err := a.reconcileLocked(cfg.Clock())
	a.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return a, nil
}

// buildClient constructs one shard's resilient client.
func (a *Aggregator) buildClient(ep ShardEndpoint) (*resilience.Client, error) {
	ccfg := resilience.ClientConfig{
		Network: ep.Network,
		Addrs:   []string{ep.Addr},
		// Shard snapshots are stamped in the shard's *virtual* time,
		// which has no relation to the aggregator's host clock, so
		// age-based staleness is meaningless here: liveness is judged
		// by heartbeat movement in Poll instead. The horizon is set
		// far beyond any run length to keep Latest serving.
		StalenessHorizon: 365 * 24 * time.Hour,
		Clock:            a.cfg.Clock,
		Journal:          a.cfg.Journal,
		Telemetry:        a.cfg.Telemetry,
	}
	if a.cfg.Tune != nil {
		a.cfg.Tune(ep.ID, &ccfg)
	}
	client, err := resilience.NewClient(ccfg)
	if err != nil {
		return nil, fmt.Errorf("cluster: shard %d client: %w", ep.ID, err)
	}
	return client, nil
}

// reconcileLocked re-derives the aggregator's book from the membership
// registry when the registry epoch has moved: retained members keep
// their slots (observed state, applied watts, HA grants), a replaced
// incarnation or brand-new member gets a fresh slot with a fresh
// client and subscription, and a decommissioned member's slot is torn
// down — its subscription cancelled, its watts back in the pool the
// moment the next partition runs. Called with a.mu held.
func (a *Aggregator) reconcileLocked(now time.Duration) error {
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
			st.ep = mb.Endpoint
			shards = append(shards, st)
			applied = append(applied, prevApplied[mb.ID])
			continue
		}
		if st, ok := prev[mb.ID]; ok {
			// Same ID, new incarnation: the previous life's slot carries
			// nothing over — not even its applied watts, which the new
			// partition re-derives from a zero baseline.
			delete(prev, mb.ID)
			a.stopSubLocked(st)
		}
		client, err := a.buildClient(mb.Endpoint)
		if err != nil {
			return err
		}
		st := &shardState{
			client:     client,
			id:         mb.ID,
			ep:         mb.Endpoint,
			inc:        mb.Incarnation,
			mstate:     mb.State,
			admittedAt: mb.AdmittedAt,
			stateEpoch: epoch,
		}
		shards = append(shards, st)
		applied = append(applied, 0)
		a.startSubLocked(st)
	}
	for _, st := range prev {
		a.stopSubLocked(st)
	}
	a.shards = shards
	a.applied = applied
	a.reports = make([]NodeReport, len(shards))
	a.nextCaps = a.nextCaps[:0]
	if len(shards) > a.boardSockets {
		n := len(shards)
		board, err := rcr.NewBlackboard(n, 1)
		if err != nil {
			return err
		}
		a.board = board
		a.boardSockets = n
	} else if a.board != nil {
		// The board keeps its high-water socket count; orphaned slots are
		// zeroed so a reader never mistakes a departed member for a live
		// one.
		for i := len(shards); i < a.boardSockets; i++ {
			a.board.SetSocket(i, rcr.MeterPower, 0, now)
			a.board.SetSocket(i, MeterHeadroom, 0, now)
			a.board.SetSocket(i, MeterCap, 0, now)
			a.board.SetSocket(i, MeterHealthy, 0, now)
		}
	}
	if a.board == nil {
		// Empty fleet: keep a one-socket board so system-scope meters
		// (budget, total power) stay readable.
		board, err := rcr.NewBlackboard(1, 1)
		if err != nil {
			return err
		}
		a.board = board
		a.boardSockets = 1
	}
	a.memEpoch = epoch
	return nil
}

// startSubLocked launches a slot's subscription goroutine under Run's
// context. A no-op before Run starts (tests driving Poll directly feed
// the clients through their own transports).
func (a *Aggregator) startSubLocked(st *shardState) {
	if a.runCtx == nil || st.subCancel != nil {
		return
	}
	ctx, cancel := context.WithCancel(a.runCtx)
	st.subCancel = cancel
	a.subWG.Add(1)
	go func(c *resilience.Client) {
		defer a.subWG.Done()
		_ = c.Subscribe(ctx)
	}(st.client)
}

// stopSubLocked cancels a retiring slot's subscription; the goroutine
// drains into subWG.
func (a *Aggregator) stopSubLocked(st *shardState) {
	if st.subCancel != nil {
		st.subCancel()
		st.subCancel = nil
	}
}

// Members returns the aggregator's membership registry — the handle
// admin operations (Join, Drain, Decommission, Replace) go through.
func (a *Aggregator) Members() *Membership { return a.members }

// Board exposes the cluster blackboard: one socket domain per shard
// (power, headroom, cap, healthy), budget and total power at system
// scope. Readers use the ordinary seqlock accessors. The board is
// rebuilt when the fleet grows past its socket count, so long-lived
// readers should re-fetch it rather than cache the pointer across
// membership changes.
func (a *Aggregator) Board() *rcr.Blackboard {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.board
}

// Run subscribes to every shard and re-partitions each period until ctx
// is cancelled; it returns ctx.Err() after all of its goroutines have
// drained. The subscription streams keep the shard clients' caches
// fresh in the background while the poll loop runs on its own ticker;
// members joining later get their streams started by reconcile.
func (a *Aggregator) Run(ctx context.Context) error {
	a.mu.Lock()
	a.runCtx = ctx
	for _, st := range a.shards {
		a.startSubLocked(st)
	}
	a.mu.Unlock()
	tick := time.NewTicker(a.cfg.Period)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			a.subWG.Wait()
			a.mu.Lock()
			a.runCtx = nil
			for _, st := range a.shards {
				st.subCancel = nil
			}
			a.mu.Unlock()
			return ctx.Err()
		case <-tick.C:
			a.Poll()
		}
	}
}

// Poll runs one reconcile → observe → roll-up → partition → push
// cycle. It is the deterministic unit Run drives on a ticker; tests
// and the experiment harness call it directly. Poll is the fleet's
// single driver — it must not be called concurrently with itself.
func (a *Aggregator) Poll() {
	now := a.cfg.Clock()
	if a.met != nil {
		a.met.polls.Inc()
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.reconcileLocked(now); err != nil {
		// A client build failure leaves the book on the previous epoch;
		// the next poll retries.
		a.journal(telemetry.KindCapRetry, fmt.Sprintf("membership reconcile: %v", err))
	}
	totalPower := 0.0
	healthy, warming := 0, 0
	allExpected := true
	for i, st := range a.shards {
		wasHealthy := st.healthy
		snap, err := st.client.Latest()
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
		inGrace := st.mstate == MemberJoining && now-st.admittedAt <= a.cfg.WarmupGrace
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

	// Roll the fleet up into the cluster blackboard.
	for i, st := range a.shards {
		hv := 0.0
		if st.healthy {
			hv = 1
		}
		a.board.SetSocket(i, rcr.MeterPower, st.power, now)
		a.board.SetSocket(i, MeterHeadroom, st.headroom, now)
		a.board.SetSocket(i, MeterCap, float64(a.applied[i]), now)
		a.board.SetSocket(i, MeterHealthy, hv, now)
	}
	a.board.SetSystem(MeterBudget, float64(a.cfg.Global), now)
	a.board.SetSystem(rcr.MeterPower, totalPower, now)
	a.board.SetSystem(rcr.MeterHeartbeat, float64(a.polls), now)

	if a.met != nil {
		a.met.capsSumW.Set(capsSum)
		a.met.powerW.Set(totalPower)
		a.met.unhealthy.Set(float64(len(a.shards) - healthy - warming))
		a.met.warmingUp.Set(float64(warming))
		if capsSum > float64(a.cfg.Global)+sumEps {
			a.met.violations.Inc()
		}
	}
}

// observe folds one shard snapshot into its state: heartbeat movement
// (liveness and restart detection), per-shard power, and headroom
// derived from memory concurrency against the knee.
func (a *Aggregator) observe(st *shardState, snap *rcr.Snapshot, now time.Duration) {
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
		if a.met != nil {
			a.met.shardRestarts.Inc()
		}
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
	st.headroom = clampHeadroom(1 - conc/a.cfg.KneeRef)
}

// push applies a new cap assignment through the SetCap seam in
// conservation-safe order and reports whether anything changed. A shard
// whose push fails keeps its previous applied value — the conservation
// invariant is judged against what was actually acknowledged. Called
// with a.mu held.
func (a *Aggregator) push(next []units.Watts) bool {
	changed := false
	blocked := false // a decrease failed; increases must wait a poll
	order := ApplyOrder(a.applied, next)
	for _, i := range order {
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
			if a.met != nil {
				a.met.capRetries.Inc()
			}
			a.journal(telemetry.KindCapRetry,
				fmt.Sprintf("shard %d cap %.1f W: %v", a.shards[i].id, float64(next[i]), err))
			err = a.cfg.SetCap(a.shards[i].id, next[i])
			if err != nil {
				if a.met != nil {
					a.met.capErrors.Inc()
				}
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
		if a.met != nil {
			a.met.repartitions.Inc()
		}
		a.journal(telemetry.KindRepartition,
			fmt.Sprintf("caps sum %.1f W of %.1f W budget", float64(Sum(a.applied)), float64(a.cfg.Global)))
	}
	return changed
}

func (a *Aggregator) journal(kind, detail string) {
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

// Status snapshots the aggregator's bookkeeping.
func (a *Aggregator) Status() AggregatorStatus {
	a.mu.Lock()
	defer a.mu.Unlock()
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
func (a *Aggregator) ConvergedSince(k uint64) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.allExpected && a.polls >= a.lastChange+k
}

// Frame exports the fleet as a CLS1 roll-up frame for the next tier up:
// shard epochs come from restart detection, versions from the heartbeat
// tick count (monotone within an epoch).
func (a *Aggregator) Frame() ClusterFrame {
	a.mu.Lock()
	defer a.mu.Unlock()
	f := ClusterFrame{
		Now:    a.cfg.Clock(),
		Budget: float64(a.cfg.Global),
		Shards: make([]ShardRecord, len(a.shards)),
	}
	for i, st := range a.shards {
		f.Shards[i] = ShardRecord{
			ID:       uint16(st.id),
			Epoch:    st.epoch,
			Ver:      uint64(st.lastBeat),
			Healthy:  st.healthy,
			Power:    st.power,
			Headroom: st.headroom,
			Cap:      float64(a.applied[i]),
		}
	}
	return f
}

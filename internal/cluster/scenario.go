package cluster

import (
	"context"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/rcr"
	"repro/internal/resilience"
	"repro/internal/resilience/soak"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// Scenario runner: the cluster tier's host-time chaos soak. A pool of
// synthetic shards — each a real rcrd server on a real unix socket
// with its own blackboard and delta publisher (soak.Server) — runs
// under one control plane while seeded fault tiers compose on top and
// the global budget keeps being re-partitioned. The shards are
// synthetic (a feeder goroutine stands in for the full core.System
// stack) because the subject is the aggregation tier; fleet.go is the
// full-stack virtual-time counterpart used by the experiments harness.
//
// The Scenario's shape selects the tiers:
//
//   - Replicas == 0: one non-HA aggregator under the shard tier
//     (faults.FleetSchedule: restarts, resets, slow-loris), audited at
//     the SetCap seam.
//   - Replicas ≥ 2: HA replicas (ha.go), every shard carrying a real
//     rcr.FenceGuard that outlives server restarts, with the WAN tier
//     (faults.WANSchedule: leader kills, asymmetric partitions, added
//     latency, split-brain hold-and-release) on top of the shard tier;
//     audited at the guards' apply seam, the only place a cap can land.
//   - Peak > Shards: additionally the membership tier
//     (faults.MembershipSchedule: join storms, dead-on-arrival joins,
//     forced decommissions, drains, re-joins under prior identity),
//     played by a driver that behaves like an operator. The shard
//     restart tier is off here: membership churn is the shard-lifecycle
//     chaos, and a schedule-driven restart of a decommissioned server
//     would violate the clean-departure gate by design.
//
// One auditor sees every cap application in a single serialized order
// and checks, after each one: conservation (Σ applied caps ≤ budget,
// with a departed member's watts leaving the sum before any survivor's
// increase can land), fenced-write safety (the applying fence never
// regresses on a shard), single leadership (no cap lands under fence f
// once a strictly higher fence has been actuating for more than a poll
// period) and hand-off latency (leader kill → first cap under a higher
// fence). After the budget the run settles with bounded patience and
// is gated on convergence, clean departure and leaked resources.

// Scenario configures one run.
type Scenario struct {
	// Seed determines every fault schedule and all jitter.
	Seed uint64
	// Shards is the fleet size — the seed fleet when Peak grows it. Zero
	// selects 8.
	Shards int
	// Peak, when above Shards, is the high-water fleet size the
	// membership tier grows to (and switches that tier on).
	Peak int
	// Replicas is the control-plane size: 0 runs a single non-HA
	// aggregator, ≥ 2 the HA plane under the WAN tier.
	Replicas int
	// Budget is the wall-time length of the run. Zero selects 2 s; every
	// fault window closes by 64% of it, leaving a convergence tail.
	Budget time.Duration
	// Period is the poll/repartition cadence. Zero selects 10 ms; the
	// lease TTL and every latency bound scale with it.
	Period time.Duration
	// SkipResourceAudit disables the goroutine/heap audit (a corpus
	// fan-out runs many scenarios concurrently and audits once).
	SkipResourceAudit bool
}

const (
	// soakHeapBound is the accepted HeapAlloc delta across a run.
	soakHeapBound = 48 << 20
	// soakFeedPeriod is the synthetic shards' sample cadence.
	soakFeedPeriod = 2 * time.Millisecond
	// soakLeasePeriods sets the lease TTL in poll periods. Guard offers
	// are in-process here, so the TTL need not absorb the socket write
	// tails that bound it in a real deployment (docs/cluster.md).
	soakLeasePeriods = 8
	// soakConvergeK is how many final polls must pass with a
	// full-health, cap-stable fleet for the non-HA tier to count as
	// converged.
	soakConvergeK = 3
)

// scenarioPlan is a Scenario with defaults applied, the timebase
// stretched and every fault schedule generated: everything about a run
// that is a pure function of its config.
type scenarioPlan struct {
	cfg        Scenario
	feedPeriod time.Duration
	ttl        time.Duration
	global     units.Watts // 60 W per shard at the high-water fleet: binding, and above Σ floors through every transient
	ha, churn  bool

	fleet   faults.FleetSchedule      // shard tier; empty under churn
	wan     faults.WANSchedule        // ha only
	members faults.MembershipSchedule // churn only

	base  int   // shards serving from the start
	pool  int   // identities the run provisions
	final []int // churn: the schedule's replayed final fleet, ascending
	clear time.Duration
}

func planScenario(cfg Scenario) (*scenarioPlan, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 8
	}
	if cfg.Budget <= 0 {
		cfg.Budget = 2 * time.Second
	}
	if cfg.Period <= 0 {
		cfg.Period = 10 * time.Millisecond
	}
	p := &scenarioPlan{feedPeriod: soakFeedPeriod, ha: cfg.Replicas >= 2, churn: cfg.Peak > cfg.Shards}
	if cfg.Replicas < 0 || cfg.Replicas == 1 {
		return nil, fmt.Errorf("cluster: scenario needs 0 or ≥ 2 replicas, got %d", cfg.Replicas)
	}
	if p.churn && !p.ha {
		return nil, fmt.Errorf("cluster: the membership tier (Peak %d > Shards %d) needs an HA control plane", cfg.Peak, cfg.Shards)
	}
	if raceEnabled {
		// Race instrumentation slows the pipeline several-fold; stretch
		// the whole timebase uniformly so the run exercises the same
		// number of polls, feeds and fault windows in slowed-down time.
		cfg.Budget *= 4
		cfg.Period *= 4
		p.feedPeriod *= 4
	}
	p.cfg, p.ttl = cfg, soakLeasePeriods*cfg.Period

	horizon := cfg.Budget * 4 / 5
	p.base, p.pool = cfg.Shards, cfg.Shards
	if p.churn {
		p.members = faults.GenerateMembershipSchedule(cfg.Seed, cfg.Shards, cfg.Peak, horizon)
		// The pool covers every identity the schedule will ever use;
		// shards beyond the base exist from the start (guard included —
		// a node's fence ledger is durable across its lives) but their
		// servers only run while the member is in the fleet.
		p.base, p.pool = p.members.Base, p.members.Base
		for _, ev := range p.members.Events {
			if ev.Shard+1 > p.pool {
				p.pool = ev.Shard + 1
			}
		}
		p.final, p.clear = p.members.FinalFleet(), p.members.ClearTime()
		p.global = units.Watts(60 * float64(cfg.Peak))
	} else {
		p.fleet = faults.GenerateFleetSchedule(cfg.Seed, cfg.Shards, horizon)
		p.clear = p.fleet.ClearTime()
		p.global = units.Watts(60 * float64(cfg.Shards))
	}
	if p.ha {
		p.wan = faults.GenerateWANSchedule(cfg.Seed, cfg.Replicas, p.pool, horizon)
		if wc := p.wan.ClearTime(); wc > p.clear {
			p.clear = wc
		}
	}
	return p, nil
}

// ScenarioReport is the audited outcome of one run. Counters of a tier
// the scenario did not select stay zero.
type ScenarioReport struct {
	Seed      uint64
	Shards    int // fleet size at the start
	Peak      int // high-water fleet size (Shards without the membership tier)
	Replicas  int
	Events    int // shard-tier fault events
	WANEvents int
	MemEvents int // membership churn ops
	LeaseTTL  time.Duration
	ClearTime time.Duration

	// Aggregation activity. Polls, LastChange and RestartsSeen are the
	// final authority's.
	Polls        uint64
	LastChange   uint64 // poll index of the final cap change
	Repartitions uint64
	CapApplies   uint64 // cap applications audited at the tier's seam
	GapResyncs   uint64 // delta-gap episodes ridden out by shard clients
	Resubscribes uint64 // streams re-opened after a shard loss
	RestartsSeen uint64 // shard restarts detected as epoch bumps

	// Control-plane activity.
	Elections    uint64
	Demotions    uint64
	FenceGrants  uint64
	FenceRejects uint64
	CapRetries   uint64

	// Membership activity (registry counters plus driver outcomes).
	Joins         uint64
	Drains        uint64
	Decommissions uint64
	CleanDrains   uint64 // drains that reached Drained before power-off
	ForcedDrains  uint64 // drains the driver forced out after its patience
	OpFailures    uint64 // ops that missed their deadline at fire time
	OpRepairs     uint64 // settle-phase re-asserts of lost ops

	// Faults injected, by tier.
	ShardKills  uint64 // shard server kill/restart cycles performed
	Resets      uint64
	LorisConns  uint64
	LeaderKills uint64
	WANDropped  uint64
	WANDelayed  uint64
	WANHeld     uint64
	WANFlushed  uint64

	// Invariant audit.
	ConservationViolations uint64 // Σ applied caps > budget, at any apply
	FencedWriteViolations  uint64 // applying fence regressed on a shard
	DoubleLeaderApplies    uint64 // cap landed under a long-superseded fence
	HandoffMarks           int    // authority kills awaiting takeover
	Handoffs               []time.Duration
	HandoffMedian          time.Duration
	OrphanSockets          int // departed members still serving or accepting
	LeadersAtEnd           int
	MembersAtEnd           int
	HealthyAtEnd           int
	FinalFleetOK           bool // leader's registry matches the replayed final fleet
	Converged              bool
	FinalCapsSumW          float64
	GoroutineGrowth        int
	HeapGrowthBytes        int64

	Violations []string
}

// Passed reports whether every invariant held.
func (r *ScenarioReport) Passed() bool { return len(r.Violations) == 0 }

// Summary renders the report as one line, with a segment per tier the
// scenario selected.
func (r *ScenarioReport) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed %d: %d shards × %d replicas, %d polls, %d repartitions, %d applies, %d gap-resyncs, %d resubs",
		r.Seed, r.Shards, r.Replicas, r.Polls, r.Repartitions, r.CapApplies, r.GapResyncs, r.Resubscribes)
	if r.Peak == r.Shards {
		fmt.Fprintf(&b, "; shard tier: %d events, %d kills, %d resets, %d loris, %d restarts-seen",
			r.Events, r.ShardKills, r.Resets, r.LorisConns, r.RestartsSeen)
	}
	if r.Replicas > 0 {
		fmt.Fprintf(&b, "; wan tier: %d events, %d elections, %d demotions, %d leader-kills, %d rejects, %d retries, %d dropped/%d held/%d flushed, handoff median %v, %d fence-violations, %d double-leader, leaders %d",
			r.WANEvents, r.Elections, r.Demotions, r.LeaderKills, r.FenceRejects, r.CapRetries,
			r.WANDropped, r.WANHeld, r.WANFlushed, r.HandoffMedian, r.FencedWriteViolations, r.DoubleLeaderApplies, r.LeadersAtEnd)
	}
	if r.Peak > r.Shards {
		fmt.Fprintf(&b, "; membership tier: fleet %d->%d->%d, %d events, %d joins, %d drains (%d clean/%d forced), %d decommissions, %d op-failures, %d repairs, %d orphan-sockets, final-fleet %v",
			r.Shards, r.Peak, r.MembersAtEnd, r.MemEvents, r.Joins, r.Drains, r.CleanDrains, r.ForcedDrains,
			r.Decommissions, r.OpFailures, r.OpRepairs, r.OrphanSockets, r.FinalFleetOK)
	}
	fmt.Fprintf(&b, "; %d conservation-violations, healthy %d/%d, converged %v, goroutines %+d",
		r.ConservationViolations, r.HealthyAtEnd, r.MembersAtEnd, r.Converged, r.GoroutineGrowth)
	return b.String()
}

// killMark is one leader kill awaiting its takeover: resolved by the
// first cap applied under a fence above the level held at kill time.
type killMark struct {
	at      time.Duration
	fence   uint64
	handoff time.Duration // 0 = unresolved
}

// applyAuditor is the independent invariant monitor at the seam where
// caps land: SetCap for the non-HA tier (fence 0 throughout), the
// guards' apply callback otherwise. One instance is shared by the
// whole pool, so it sees the fleet's applications in a single
// serialized order — which is what makes the cross-shard invariants
// checkable at all, and why a partitioner or apply-order bug cannot
// hide between polls.
type applyAuditor struct {
	global float64
	period time.Duration
	clock  *soak.HostClock

	mu           sync.Mutex
	caps         []float64
	lastFence    []uint64
	firstSeen    map[uint64]time.Duration // fence → first accepted apply
	applies      uint64
	conservation uint64
	fenceRegress uint64
	doubleLeader uint64
	kills        []*killMark
}

func (a *applyAuditor) apply(shard int, capW float64, fence uint64) {
	now := a.clock.Now()
	a.mu.Lock()
	defer a.mu.Unlock()
	a.applies++
	if fence < a.lastFence[shard] {
		a.fenceRegress++
	}
	a.lastFence[shard] = fence
	// Two leaders at once: a cap landing under fence f after a strictly
	// higher fence has been actuating for more than one poll period. The
	// one-period grace absorbs the legitimate overlap where a superseded
	// leader's final in-flight write lands just as its successor starts.
	for f, t0 := range a.firstSeen {
		if f > fence && now-t0 > a.period {
			a.doubleLeader++
			break
		}
	}
	if _, ok := a.firstSeen[fence]; !ok {
		a.firstSeen[fence] = now
	}
	for _, k := range a.kills {
		if k.handoff == 0 && fence > k.fence && now > k.at {
			k.handoff = now - k.at
		}
	}
	a.caps[shard] = capW
	sum := 0.0
	for _, c := range a.caps {
		sum += c
	}
	if sum > a.global+sumEps {
		a.conservation++
	}
}

// cap returns the shard's currently applied cap (0 = never assigned).
func (a *applyAuditor) cap(shard int) float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.caps[shard]
}

// retire zeroes a departed shard's audited cap. The driver stops the
// shard's server first — no further apply can land — and retires the
// slot *before* decommissioning the member, so the departed watts are
// out of the audited sum before any survivor's increase arrives and the
// conservation check stays strict across the hand-back.
func (a *applyAuditor) retire(shard int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.caps[shard] = 0
}

// markKill records a leader kill at the fleet's current max fence.
func (a *applyAuditor) markKill(at time.Duration, fence uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.kills = append(a.kills, &killMark{at: at, fence: fence})
}

// actuated reports whether any cap has landed under fence.
func (a *applyAuditor) actuated(fence uint64) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	_, ok := a.firstSeen[fence]
	return ok
}

// handoffs returns the kill→takeover gaps that resolved by limit.
func (a *applyAuditor) handoffs(limit time.Duration) []time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	var hs []time.Duration
	for _, k := range a.kills {
		if k.handoff > 0 && k.at+k.handoff <= limit {
			hs = append(hs, k.handoff)
		}
	}
	return hs
}

// scenarioShard is one synthetic shard: a restartable server fed by
// the shared feeder. A restart swaps in a fresh blackboard, so the new
// incarnation's heartbeat restarts from 1 — exactly what a real shard
// crash looks like to the aggregator.
type scenarioShard struct {
	*soak.Server
	id    int
	board *rcr.Blackboard // incarnation the beat counts for
	beat  float64
}

// feed writes one synthetic sample tick: heartbeat, per-socket power
// and memory concurrency, then drives the publisher. Power follows the
// applied cap — a capped shard draws min(demand, cap) — so the
// aggregator's partitioning visibly shapes the fleet it observes. Even
// shards are memory-bound (high concurrency near the knee, low
// headroom), odd shards compute-bound (low concurrency, high headroom):
// the skew that makes proportional partitioning differ from an equal
// split. A down shard ignores its tick.
func (s *scenarioShard) feed(now time.Duration, cap float64) {
	s.Feed(func(bb *rcr.Blackboard, pub *rcr.Publisher) {
		if bb != s.board {
			s.board, s.beat = bb, 0
		}
		s.beat++
		demand, conc := 150.0, 4.0 // compute-bound
		if s.id%2 == 0 {
			demand, conc = 100.0, 26.0 // memory-bound, near the 28-ref knee
		}
		power := demand
		if cap > 0 && cap < power {
			power = cap
		}
		power += 3 * float64(int(s.beat)%3-1) // ±3 W sampling ripple
		if power < 0 {
			power = 0
		}
		bb.SetSystem(rcr.MeterHeartbeat, s.beat, now)
		for d := 0; d < bb.Sockets(); d++ {
			bb.SetSocket(d, rcr.MeterPower, power/float64(bb.Sockets()), now)
			bb.SetSocket(d, rcr.MeterMemConcurrency, conc, now)
		}
		pub.Tick(now)
	})
}

// offerCap and offerMem deliver one fenced write to the shard's guard —
// but only while the shard is up: a killed, restarting or departed
// shard cannot ack, exactly like a dead daemon, so the leader sees a
// transport error, its lease renewal on this shard fails, and delayed
// split-brain deliveries against a departed member bounce in transport.
func (s *scenarioShard) offerCap(w rcr.CapWrite) (rcr.CapAck, error) {
	if !s.Up() {
		return rcr.CapAck{}, fmt.Errorf("shard %d: down (injected)", s.id)
	}
	return s.Fence.Offer(w), nil
}

func (s *scenarioShard) offerMem(w rcr.MemWrite) (rcr.MemAck, error) {
	if !s.Up() {
		return rcr.MemAck{}, fmt.Errorf("shard %d: down (injected)", s.id)
	}
	return s.Fence.OfferMem(w), nil
}

// replicaSlot is one restartable control-plane replica.
type replicaSlot struct {
	agg    *Aggregator
	cancel context.CancelFunc
	done   chan error
}

func (s *replicaSlot) stop() {
	s.cancel()
	<-s.done
}

// scenarioRun is the live state of one run.
type scenarioRun struct {
	*scenarioPlan
	rep     *ScenarioReport
	clock   *soak.HostClock
	reg     *telemetry.Registry
	journal *telemetry.Journal
	auditor *applyAuditor
	inj     *faults.WANInjector // ha only

	shards    []*scenarioShard
	endpoints []ShardEndpoint

	repMu    sync.Mutex
	replicas []*replicaSlot // nil while a killed slot awaits its rebuild

	stopFeed chan struct{}
	feedWG   sync.WaitGroup
	chaosWG  sync.WaitGroup

	err error // set by the leader-kill driver, read after chaosWG.Wait; fails the run
}

// RunScenario executes one scenario and audits it.
func RunScenario(cfg Scenario) (*ScenarioReport, error) {
	plan, err := planScenario(cfg)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "clustersoak")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	r := &scenarioRun{scenarioPlan: plan, reg: telemetry.NewRegistry(), journal: telemetry.NewJournal(1<<12, 1)}
	r.rep = &ScenarioReport{
		Seed: plan.cfg.Seed, Shards: plan.base, Peak: max(plan.cfg.Peak, plan.base), Replicas: plan.cfg.Replicas,
		Events: len(plan.fleet.Events), WANEvents: len(plan.wan.Events), MemEvents: len(plan.members.Events),
		LeaseTTL: plan.ttl, ClearTime: plan.clear,
	}
	var audit *soak.ResourceAudit
	if !plan.cfg.SkipResourceAudit {
		audit = soak.BeginResourceAudit()
	}

	if err := r.start(dir); err != nil {
		r.teardown()
		return nil, err
	}
	r.startFaultTiers()

	// Let the run play out, then settle and tear down in dependency order.
	r.sleepUntil(r.cfg.Budget)
	r.chaosWG.Wait()
	if r.ha {
		r.inj.Flush(r.cfg.Budget * 2) // late split-brain deliveries must bounce off fences
	}
	r.settle()
	if r.churn {
		r.auditDepartures()
	}
	r.teardown()
	if r.err != nil {
		return nil, r.err
	}

	r.collect()
	r.rep.GoroutineGrowth, r.rep.HeapGrowthBytes = audit.Finish()
	r.rep.audit(plan)
	return r.rep, nil
}

// start brings up the shard pool (sockets under dir), the replica slots
// and the feeder.
func (r *scenarioRun) start(dir string) error {
	r.clock = soak.NewHostClock()
	r.auditor = &applyAuditor{
		global:    float64(r.global),
		period:    r.cfg.Period,
		clock:     r.clock,
		caps:      make([]float64, r.pool),
		lastFence: make([]uint64, r.pool),
		firstSeen: make(map[uint64]time.Duration),
	}
	if r.ha {
		r.inj = faults.NewWANInjector(r.wan)
	}

	r.shards = make([]*scenarioShard, r.pool)
	r.endpoints = make([]ShardEndpoint, r.pool)
	for i := range r.shards {
		sh := &scenarioShard{id: i, Server: &soak.Server{
			Socket: filepath.Join(dir, fmt.Sprintf("shard-%d.sock", i)),
			Clock:  r.clock,
			Reg:    r.reg,
			Active: func(now time.Duration) []faults.ServiceKind { return r.fleet.ActiveOn(i, now) },
		}}
		if r.ha {
			// The guard actuates straight into the auditor.
			sh.Fence = rcr.NewFenceGuard(r.clock.Now, func(capW float64, fence uint64) error {
				r.auditor.apply(i, capW, fence)
				return nil
			})
			sh.Fence.Instrument(r.reg)
			sh.Fence.Journal(r.journal)
		}
		r.shards[i] = sh
		r.endpoints[i] = ShardEndpoint{ID: i, Network: "unix", Addr: sh.Socket}
	}
	for _, sh := range r.shards[:r.base] {
		if err := sh.Start(); err != nil {
			return err
		}
	}

	r.replicas = make([]*replicaSlot, max(r.cfg.Replicas, 1))
	for i := range r.replicas {
		slot, err := r.buildReplica(i, 0)
		if err != nil {
			return err
		}
		r.replicas[i] = slot
	}

	// Feeder: one goroutine ticks the whole pool on the host cadence.
	r.stopFeed = make(chan struct{})
	r.feedWG.Add(1)
	go func() {
		defer r.feedWG.Done()
		tick := time.NewTicker(r.feedPeriod)
		defer tick.Stop()
		for {
			select {
			case <-r.stopFeed:
				return
			case <-tick.C:
				now := r.clock.Now()
				for i, sh := range r.shards {
					sh.feed(now, r.auditor.cap(i))
				}
			}
		}
	}()
	return nil
}

// teardown stops whatever start brought up: control plane first, then
// the feeder, then the shards.
func (r *scenarioRun) teardown() {
	for _, slot := range r.liveReplicas() {
		if slot != nil {
			slot.stop()
		}
	}
	if r.stopFeed != nil {
		close(r.stopFeed)
		r.feedWG.Wait()
	}
	for _, sh := range r.shards {
		sh.Stop()
	}
}

// gatedWrite routes one fenced write through the WAN injector: dropped
// by a partition, delayed, or captured by a split-brain window and
// delivered later on the flusher goroutine — the buffered channel keeps
// that late ack hand-off properly synchronized.
func gatedWrite[W, A any](r *scenarioRun, idx int, offer func(*scenarioShard, W) (A, error)) func(int, W) (A, error) {
	return func(shard int, w W) (A, error) {
		res := make(chan A, 1)
		err := r.inj.GateWrite(idx, shard, r.clock.Now(), func() error {
			ack, err := offer(r.shards[shard], w)
			if err != nil {
				return err
			}
			res <- ack
			return nil
		})
		if err != nil {
			var zero A
			return zero, err
		}
		return <-res, nil
	}
}

// buildReplica starts the aggregator for one replica slot. A killed
// replica's slot is rebuilt with a fresh Aggregator carrying the same
// ID — a restarted daemon, not a new peer — and a generation-salted
// jitter seed. Every replica, rebuilt ones included, starts from the
// static base fleet, the way a restarted daemon reads its stale config
// file; under the membership tier it learns the actual fleet by
// adopting the committed record its campaign acks return.
func (r *scenarioRun) buildReplica(idx, gen int) (*replicaSlot, error) {
	acfg := AggregatorConfig{
		Shards:        r.endpoints[:r.base],
		Global:        r.global,
		Floor:         10,
		Max:           200,
		Period:        r.cfg.Period,
		HealthHorizon: 6 * r.cfg.Period,
		Clock:         r.clock.Now,
		Telemetry:     r.reg,
		Journal:       r.journal,
		Tune: func(shard int, ccfg *resilience.ClientConfig) {
			seed := r.cfg.Seed ^ uint64(shard)<<20
			if r.ha {
				seed ^= uint64(idx+1) << 30
				ccfg.Subscribe = func(ctx context.Context, network, addr string) (resilience.SubStream, error) {
					if r.inj.SubBlocked(idx, shard, r.clock.Now()) {
						return nil, fmt.Errorf("wan: replica %d partitioned from shard %d", idx, shard)
					}
					return rcr.Subscribe(ctx, network, addr)
				}
			}
			ccfg.Backoff = resilience.Backoff{Base: 5 * time.Millisecond, Max: 40 * time.Millisecond, Seed: seed}
		},
	}
	if r.ha {
		acfg.HA = &HAConfig{
			ID:         uint32(idx + 1),
			LeaseTTL:   r.ttl,
			JitterSeed: r.cfg.Seed ^ uint64(idx+1)<<40 ^ uint64(gen)<<8,
		}
	} else {
		acfg.SetCap = func(shard int, cap units.Watts) error {
			r.auditor.apply(shard, float64(cap), 0)
			return nil
		}
	}
	if r.churn {
		members, err := NewMembership(acfg.Shards, r.clock.Now)
		if err != nil {
			return nil, err
		}
		members.Instrument(r.reg)
		members.Journal(r.journal)
		acfg.Members = members
		// Every fenced write rides the membership op, so the committed
		// record is replicated and fetched through the same gated,
		// fault-injected path as the caps.
		acfg.HA.WriteMem = gatedWrite(r, idx, (*scenarioShard).offerMem)
	} else if r.ha {
		acfg.HA.WriteCap = gatedWrite(r, idx, (*scenarioShard).offerCap)
	}
	agg, err := NewAggregator(acfg)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	slot := &replicaSlot{agg: agg, cancel: cancel, done: make(chan error, 1)}
	go func() { slot.done <- agg.Run(ctx) }()
	return slot, nil
}

func (r *scenarioRun) liveReplicas() []*replicaSlot {
	r.repMu.Lock()
	defer r.repMu.Unlock()
	return append([]*replicaSlot(nil), r.replicas...)
}

// authority resolves the control plane's active element: among
// replicas claiming leadership, the one with the highest fence (a
// partitioned stale claimant still inside its old lease may also
// claim). The non-HA tier's lone aggregator always is. It also returns
// how many replicas claim; slot is -1 when none does.
func (r *scenarioRun) authority() (slot int, agg *Aggregator, st AggregatorStatus, claimants int) {
	slot = -1
	for i, rs := range r.liveReplicas() {
		if rs == nil {
			continue
		}
		s := rs.agg.Status()
		if r.ha && !s.Leader {
			continue
		}
		claimants++
		if s.Fence >= st.Fence {
			slot, agg, st = i, rs.agg, s
		}
	}
	return slot, agg, st, claimants
}

func (r *scenarioRun) sleepUntil(t time.Duration) {
	if d := t - r.clock.Now(); d > 0 {
		time.Sleep(d)
	}
}

// startFaultTiers launches the drivers of every tier the plan selects.
func (r *scenarioRun) startFaultTiers() {
	budget := r.cfg.Budget
	if !r.churn {
		// Shard tier: per-shard restart windows plus the loris attacker
		// (ConnReset windows act inside each server's listener).
		servers := make([]*soak.Server, len(r.shards))
		for i, sh := range r.shards {
			servers[i] = sh.Server
			var events []faults.ServiceEvent
			for _, ev := range r.fleet.Events {
				if ev.Shard == i {
					events = append(events, ev.ServiceEvent)
				}
			}
			r.chaosWG.Add(1)
			go func() {
				defer r.chaosWG.Done()
				atomic.AddUint64(&r.rep.ShardKills, sh.RunRestarts(events, budget))
			}()
		}
		r.chaosWG.Add(1)
		go func() {
			defer r.chaosWG.Done()
			r.rep.LorisConns = soak.RunLoris(r.clock, servers, 4, budget)
		}()
	} else {
		r.chaosWG.Add(1)
		go func() {
			defer r.chaosWG.Done()
			r.driveMembership()
		}()
	}
	if r.ha {
		// WAN tier: partitions, latency and split-brain capture act inside
		// gatedWrite and the Subscribe seam; the flusher releases held
		// writes when their window closes — the delayed delivery the
		// fence exists for.
		r.chaosWG.Add(2)
		go func() {
			defer r.chaosWG.Done()
			tick := time.NewTicker(r.cfg.Period)
			defer tick.Stop()
			for r.clock.Now() < budget {
				<-tick.C
				r.inj.Flush(r.clock.Now())
			}
		}()
		go func() {
			defer r.chaosWG.Done()
			r.driveLeaderKills()
		}()
	}
}

// driveLeaderKills plays the WAN schedule's LeaderKill windows. The
// schedule's Agg is advisory; each kill resolves to whichever replica
// actually leads at that moment (waiting up to half the window for one
// to emerge), so the fault always lands on the control plane's active
// element.
func (r *scenarioRun) driveLeaderKills() {
	for _, ev := range r.wan.Kills() {
		r.sleepUntil(ev.Start)
		if r.clock.Now() >= r.cfg.Budget {
			return
		}
		victim, _, _, _ := r.authority()
		for mid := ev.Start + (ev.End-ev.Start)/2; victim < 0 && r.clock.Now() < mid; victim, _, _, _ = r.authority() {
			time.Sleep(r.cfg.Period / 2)
		}
		if victim < 0 {
			victim = ev.Agg % r.cfg.Replicas
		}
		var fmax uint64
		for _, sh := range r.shards {
			if st := sh.Fence.State(); st.Fence > fmax {
				fmax = st.Fence
			}
		}
		r.repMu.Lock()
		slot := r.replicas[victim]
		r.replicas[victim] = nil
		r.repMu.Unlock()
		if slot == nil { // advisory slot still rebuilding from a prior kill
			continue
		}
		// Only a kill that removes the fleet's actual authority has a
		// hand-off to measure; killing a stale claimant or an idle standby
		// leaves the real leader running.
		if st := slot.agg.Status(); st.Leader && st.Fence >= fmax {
			r.auditor.markKill(r.clock.Now(), fmax)
		}
		slot.stop()
		r.rep.LeaderKills++ // this goroutine is the only writer; read after chaosWG.Wait
		r.sleepUntil(ev.End)
		// NewAggregator/NewMembership fail only on static config
		// validation that generation 0 already passed, so a failed
		// rebuild is a harness bug: fail the run rather than soak on with
		// a silently halved control plane.
		slot, err := r.buildReplica(victim, 1+int(r.rep.LeaderKills))
		if err != nil {
			r.err = fmt.Errorf("rebuild replica %d after kill %d: %w", victim, r.rep.LeaderKills, err)
			return
		}
		r.repMu.Lock()
		r.replicas[victim] = slot
		r.repMu.Unlock()
	}
}

// Membership driver. It plays the schedule the way an operator would:
// it owns the shard processes (a server starts before its join, stops
// at its crash instant, powers off only after a drain completes) and
// applies every registry op to whichever replica currently leads. Ops
// fire at their scheduled instant; the registry write retries against
// whichever replica leads until the op lands or the deadline passes,
// because an op accepted by a leader that is killed before replicating
// it is simply gone — the operator's retry is part of the protocol,
// and the settle phase re-asserts anything that stayed lost.
func (r *scenarioRun) driveMembership() {
	var wg sync.WaitGroup
	defer wg.Wait()
	for _, ev := range r.members.Events {
		r.sleepUntil(ev.At)
		if r.clock.Now() >= r.cfg.Budget {
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.runMemberEvent(ev)
		}()
	}
}

func (r *scenarioRun) opDeadline(at time.Duration) time.Duration {
	return min(at+8*r.ttl, r.cfg.Budget)
}

func (r *scenarioRun) opFailed() { atomic.AddUint64(&r.rep.OpFailures, 1) }

// withLeader applies op to the current authority's registry and waits
// for it to become durable, until deadline.
func (r *scenarioRun) withLeader(deadline time.Duration, op func(m *Membership) error) bool {
	for {
		if _, agg, _, _ := r.authority(); agg != nil {
			if err := op(agg.Members()); err == nil {
				// In the leader's registry is not yet done: the op is
				// durable only once the epoch carrying it is acked by a
				// quorum of guards. A leader killed before that takes the
				// only copy with it — a successor elected from a quorum
				// adopts a record without the op. Wait for durability,
				// re-issuing against any new leader (the ops are
				// idempotent state checks).
				for cur := agg; cur == agg; _, cur, _, _ = r.authority() {
					if agg.MembershipDurable() {
						return true
					}
					if r.clock.Now() >= deadline {
						return false
					}
					time.Sleep(r.cfg.Period / 2)
				}
				continue // authority moved: re-issue against its successor
			}
		}
		if r.clock.Now() >= deadline {
			return false
		}
		time.Sleep(r.cfg.Period / 2)
	}
}

// The ops are written idempotently against the registry's *current*
// state, so a retry that crosses a leader change never double-applies
// and a target whose earlier op was lost resolves to the op's intent.
func (r *scenarioRun) joinOp(id int) func(m *Membership) error {
	return func(m *Membership) error {
		if mb, ok := m.Get(id); ok && mb.State.InFleet() {
			return nil
		}
		return m.Join(r.endpoints[id])
	}
}

func drainOp(id int) func(m *Membership) error {
	return func(m *Membership) error {
		mb, ok := m.Get(id)
		if !ok || !mb.State.InFleet() || mb.State == MemberDraining || mb.State == MemberDrained {
			return nil // draining already, or out — the drain's end state
		}
		return m.Drain(id)
	}
}

func decomOp(id int) func(m *Membership) error {
	return func(m *Membership) error {
		if mb, ok := m.Get(id); !ok || !mb.State.InFleet() {
			return nil
		}
		return m.Decommission(id)
	}
}

// powerOff takes a node out, in the order the conservation audit
// requires: server down (no further apply can land), enforcement
// registers power-cycled (a rejoining incarnation must not resurrect a
// cap ledger whose watts the fleet already reclaimed), audited slot
// retired (the watts leave the audited sum). Only after it may the
// registry op hand the watts back to the pool.
func (r *scenarioRun) powerOff(id int) {
	r.shards[id].Stop()
	r.shards[id].Fence.PowerCycle()
	r.auditor.retire(id)
}

// stopAndDecommission is every departure's final step.
func (r *scenarioRun) stopAndDecommission(id int, deadline time.Duration) {
	r.powerOff(id)
	if !r.withLeader(deadline, decomOp(id)) {
		r.opFailed()
	}
}

// startAndJoin boots the node and admits it.
func (r *scenarioRun) startAndJoin(id int, deadline time.Duration) {
	if err := r.shards[id].Start(); err != nil || !r.withLeader(deadline, r.joinOp(id)) {
		r.opFailed()
	}
}

func (r *scenarioRun) runMemberEvent(ev faults.MembershipEvent) {
	switch ev.Op {
	case faults.OpJoin:
		r.startAndJoin(ev.Shard, r.opDeadline(ev.At))
	case faults.OpJoinCrash:
		// Dead on arrival: whether the join landed is immaterial, the
		// crash and its clean-up are the subject.
		if err := r.shards[ev.Shard].Start(); err == nil {
			r.withLeader(r.opDeadline(ev.At), r.joinOp(ev.Shard))
		}
		r.sleepUntil(ev.At + ev.Dwell)
		r.stopAndDecommission(ev.Shard, r.opDeadline(ev.At+ev.Dwell))
	case faults.OpDecommission:
		r.stopAndDecommission(ev.Shard, r.opDeadline(ev.At))
	case faults.OpDrain:
		if !r.withLeader(r.opDeadline(ev.At), drainOp(ev.Shard)) {
			r.opFailed()
		}
		// Wait out the dwell for the leader to step the member to its
		// floor and mark it Drained; an operator whose patience runs out
		// forces the member off anyway — the registry op, not the drain
		// ceremony, is what returns the watts.
		patience := min(ev.At+ev.Dwell+4*r.ttl, r.cfg.Budget)
		drained := false
		for !drained && r.clock.Now() < patience {
			if _, agg, _, _ := r.authority(); agg != nil {
				mb, ok := agg.Members().Get(ev.Shard)
				drained = !ok || !mb.State.InFleet() || mb.State == MemberDrained
			}
			if !drained {
				time.Sleep(r.cfg.Period / 2)
			}
		}
		if drained {
			atomic.AddUint64(&r.rep.CleanDrains, 1)
		} else {
			atomic.AddUint64(&r.rep.ForcedDrains, 1)
		}
		r.stopAndDecommission(ev.Shard, r.opDeadline(patience))
	case faults.OpRejoin:
		r.stopAndDecommission(ev.Shard, r.opDeadline(ev.At))
		r.sleepUntil(ev.At + ev.Dwell)
		if r.clock.Now() < r.cfg.Budget {
			r.startAndJoin(ev.Shard, r.opDeadline(ev.At+ev.Dwell))
		}
	}
}

// fleetRepairs is one operator reconcile step toward the planned final
// fleet, as a decision: which servers to power on, which members the
// leader's book lists outside the plan (power off, then decommission),
// which planned members its book is missing (join), and which servers
// are up outside the plan without the leader's book ever having listed
// them (power off).
type fleetRepairs struct {
	powerOn, decommission, join, powerOff []int
}

func (f fleetRepairs) none() bool {
	return len(f.powerOn)+len(f.decommission)+len(f.join)+len(f.powerOff) == 0
}

// planRepairs decides the reconcile step from the final fleet, which
// pool servers are up, and every live replica's registry (leader
// indexes the authority's, -1 when the plane is leaderless).
func planRepairs(final []int, up []bool, books [][]Member, leader int) fleetRepairs {
	var f fleetRepairs
	want := make(map[int]bool, len(final))
	on := make(map[int]bool)
	// Power the final fleet's servers back on first, leader or not: a
	// run whose ops failed during a no-leader window may have stopped
	// enough shards to destroy election quorum, and only restarted
	// servers can grant the campaign that restores a leader.
	for _, id := range final {
		want[id] = true
		if !up[id] {
			f.powerOn, on[id] = append(f.powerOn, id), true
		}
	}
	if leader < 0 {
		// No leader to repair through. A campaign needs grants from a
		// majority of the CANDIDATE'S book — which may still be the base
		// fleet, or any mid-churn registry, not the schedule's final
		// fleet — so restarting final servers alone can leave every
		// candidate short of quorum forever. Power on whatever each
		// surviving replica's own registry says the fleet is; the leader
		// this restores decommissions or powers off the extras below.
		for _, book := range books {
			for _, mb := range book {
				if !up[mb.ID] && !on[mb.ID] {
					f.powerOn, on[mb.ID] = append(f.powerOn, mb.ID), true
				}
			}
		}
		return f
	}
	listed := make(map[int]bool)
	for _, mb := range books[leader] {
		listed[mb.ID] = true
		if !want[mb.ID] {
			f.decommission = append(f.decommission, mb.ID)
		}
	}
	for _, id := range final {
		if !listed[id] {
			f.join = append(f.join, id)
		}
	}
	// The leaderless branch may have powered on extras a stale minority
	// registry still listed. They must go even when the leader's own
	// book already equals the plan — the settle loop does not exit while
	// any are left, or the clean-departure audit would count them as
	// orphans of a fleet that in fact converged.
	for id, isUp := range up {
		if isUp && !want[id] && !listed[id] {
			f.powerOff = append(f.powerOff, id)
		}
	}
	return f
}

// applyRepairs carries a reconcile step out against the authority's
// registry m (nil when leaderless: then only power-ons were planned).
func (r *scenarioRun) applyRepairs(f fleetRepairs, m *Membership) {
	repaired := func() { r.rep.OpRepairs++ }
	for _, id := range f.powerOn {
		if r.shards[id].Start() == nil {
			repaired()
		}
	}
	for _, id := range f.decommission {
		r.powerOff(id)
		if m.Decommission(id) == nil {
			repaired()
		}
	}
	for _, id := range f.join {
		if m.Join(r.endpoints[id]) == nil {
			repaired()
		}
	}
	for _, id := range f.powerOff {
		r.powerOff(id)
		repaired()
	}
}

// fleetSettled reports whether a leader's registry and health equal
// the planned final fleet: exactly its members, all Active and healthy.
func fleetSettled(final []int, book []Member, healthy int) bool {
	if len(book) != len(final) || healthy != len(final) {
		return false
	}
	for i, mb := range book {
		if mb.ID != final[i] || mb.State != MemberActive {
			return false
		}
	}
	return true
}

// settle waits, with bounded patience, for the tier's convergence
// predicate after the faults have cleared, and records the census it
// ended on:
//
//   - non-HA: every shard healthy and no cap change for soakConvergeK
//     polls (caps ripple with the feed, so one sample at budget end
//     says little);
//   - HA: exactly one leader and every shard healthy. A demotion in the
//     run's last moments legitimately leaves the fleet leaderless until
//     the next election cycle completes (observed expiry + grace +
//     jitter + campaign), and on a loaded host that cycle can straddle
//     the budget's end;
//   - membership: additionally the leader's registry equals the
//     replayed final fleet and no server is up outside it, with the
//     operator reconciling the fleet to its plan on every pass —
//     re-asserting ops a mid-run leader accepted and then lost with
//     its life.
//
// In every tier the authority must also have landed a cap under its own
// fence: a leader elected in the run's last moments — or, on a starved
// host, the first leader of the whole run — is still claiming the fleet,
// and a plane that has not actuated has not taken over, however healthy
// its census reads.
//
// Safety invariants are not part of this: they are audited at every
// apply, during the settle phase included.
func (r *scenarioRun) settle() {
	patience := 6 * r.ttl
	if r.churn {
		patience = 10 * r.ttl
	}
	rep := r.rep
	for deadline := time.Now().Add(patience); ; time.Sleep(r.cfg.Period / 2) {
		slot, agg, st, leaders := r.authority()
		rep.LeadersAtEnd, rep.HealthyAtEnd, rep.MembersAtEnd = leaders, st.Healthy, st.Shards
		rep.Polls, rep.LastChange, rep.RestartsSeen = st.Polls, st.LastChange, st.ShardRestarts
		rep.FinalCapsSumW = float64(st.CapsSum)
		var todo fleetRepairs
		steering := leaders == 1 && r.auditor.actuated(st.Fence)
		switch {
		case !r.ha:
			rep.Converged = steering && agg.ConvergedSince(soakConvergeK)
		case !r.churn:
			rep.Converged = steering && st.Healthy == r.pool
		default:
			live := r.liveReplicas()
			books := make([][]Member, len(live))
			for i, rs := range live {
				if rs != nil {
					books[i] = rs.agg.Members().Members()
				}
			}
			up := make([]bool, r.pool)
			for i, sh := range r.shards {
				up[i] = sh.Up()
			}
			todo = planRepairs(r.final, up, books, slot)
			rep.FinalFleetOK = slot >= 0 && fleetSettled(r.final, books[slot], st.Healthy)
			rep.Converged = steering && rep.FinalFleetOK && todo.none()
		}
		if rep.Converged || !time.Now().Before(deadline) {
			return
		}
		if !todo.none() {
			var m *Membership
			if agg != nil {
				m = agg.Members()
			}
			r.applyRepairs(todo, m)
		}
	}
}

// auditDepartures is the clean-departure audit, run before teardown
// stops the survivors: every identity outside the final fleet must be
// down and its socket dead.
func (r *scenarioRun) auditDepartures() {
	want := make(map[int]bool, len(r.final))
	for _, id := range r.final {
		want[id] = true
	}
	for id, sh := range r.shards {
		if want[id] {
			continue
		}
		if sh.Up() {
			r.rep.OrphanSockets++
		} else if c, err := net.DialTimeout("unix", sh.Socket, 10*time.Millisecond); err == nil {
			c.Close()
			r.rep.OrphanSockets++
		}
	}
}

// collect folds the registry, injector and auditor counters into the
// report.
func (r *scenarioRun) collect() {
	rep, count := r.rep, func(name string) uint64 { return r.reg.Counter(name).Value() }
	rep.Repartitions = count("cluster_repartitions_total")
	rep.GapResyncs = count("resilience_client_gap_resyncs_total")
	rep.Resubscribes = count("resilience_client_resubscribes_total")
	rep.Elections = count("cluster_leader_elections_total")
	rep.Demotions = count("cluster_leader_demotions_total")
	rep.FenceGrants = count("cluster_fence_grants_total")
	rep.FenceRejects = count("cluster_fence_rejects_total")
	rep.CapRetries = count("cluster_cap_retries_total")
	rep.Joins = count("cluster_member_joins_total")
	rep.Drains = count("cluster_member_drains_total")
	rep.Decommissions = count("cluster_member_decommissions_total")
	for _, sh := range r.shards {
		rep.Resets += sh.Resets()
	}
	if r.ha {
		ws := r.inj.Stats()
		rep.WANDropped, rep.WANDelayed, rep.WANHeld, rep.WANFlushed = ws.Dropped, ws.Delayed, ws.Captured, ws.Flushed
	}
	a := r.auditor
	limit := time.Duration(math.MaxInt64)
	rep.Handoffs = a.handoffs(limit)
	// Under the membership tier the latency bound judges in-run
	// hand-offs only. A churn run can legitimately destroy election
	// quorum (enough member servers stopped by failed-op fallout that no
	// candidate's book can grant a majority); the takeover then waits
	// for the settle phase's repairs, and its gap measures the outage,
	// not the protocol.
	if r.churn {
		limit = r.cfg.Budget
	}
	rep.HandoffMedian = medianDuration(a.handoffs(limit))
	a.mu.Lock()
	defer a.mu.Unlock()
	rep.CapApplies = a.applies
	rep.ConservationViolations = a.conservation
	if !r.ha {
		// The lone aggregator's book is what the fleet enforces, so its
		// own Σ book ≤ budget self-check counts too; a standby's or a
		// freshly adopted book is not, and is not gated.
		rep.ConservationViolations += count("cluster_conservation_violations_total")
	}
	rep.FencedWriteViolations = a.fenceRegress
	rep.DoubleLeaderApplies = a.doubleLeader
	rep.HandoffMarks = len(a.kills)
}

func medianDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// audit fills Violations: the invariants every seed must hold.
func (r *ScenarioReport) audit(p *scenarioPlan) {
	fail := func(format string, args ...any) { r.Violations = append(r.Violations, fmt.Sprintf(format, args...)) }
	if r.ConservationViolations > 0 {
		fail("%d conservation violations: Σ applied caps exceeded the %.0f W budget", r.ConservationViolations, float64(p.global))
	}
	if r.FencedWriteViolations > 0 {
		fail("%d fenced-write violations: a demoted leader's cap landed", r.FencedWriteViolations)
	}
	if r.DoubleLeaderApplies > 0 {
		fail("%d double-leadership applications: two fences actuated the fleet at once", r.DoubleLeaderApplies)
	}
	if r.CapApplies == 0 {
		fail("no cap was ever applied: the budget was never partitioned")
	}
	if !p.ha && r.Polls == 0 {
		fail("aggregator never polled")
	}
	if p.ha {
		if r.Elections == 0 {
			fail("no replica was ever elected leader")
		}
		if r.HandoffMarks > 0 && len(r.Handoffs) == 0 {
			fail("%d authority kills but no successor ever applied a cap under a higher fence", r.HandoffMarks)
		}
		// Per-run hand-off bound: 4× TTL per seed absorbs a takeover that
		// collides with a partition window; the corpus gates the median
		// of all hand-offs at the 2×TTL target from the HA design. 6×
		// under the membership tier: such a run has join/drain drivers
		// and up to Peak real servers on top of the control plane, and
		// the corpus runs several such fleets concurrently — on a small
		// host the scheduler tail stretches every hand-off.
		bound := 4
		if p.churn {
			bound = 6
		}
		if r.HandoffMedian > time.Duration(bound)*r.LeaseTTL {
			fail("hand-off median %v exceeds %d× lease TTL (%v)", r.HandoffMedian, bound, r.LeaseTTL)
		}
	}
	if p.churn {
		if r.Joins == 0 {
			fail("no member ever joined: the churn tier never fired")
		}
		if r.Decommissions == 0 {
			fail("no member was ever decommissioned")
		}
		if r.OrphanSockets > 0 {
			fail("%d departed members still had live servers or sockets", r.OrphanSockets)
		}
		if !r.FinalFleetOK {
			fail("membership did not converge to the schedule's final fleet (%d members at end)", r.MembersAtEnd)
		}
	}
	if !r.Converged {
		fail("fleet did not converge after the last fault window: %d leaders at end, %d healthy of %d members, caps last changed at poll %d of %d",
			r.LeadersAtEnd, r.HealthyAtEnd, r.MembersAtEnd, r.LastChange, r.Polls)
	}
	if r.GoroutineGrowth > 0 {
		fail("goroutine leak: %+d after teardown", r.GoroutineGrowth)
	}
	if r.HeapGrowthBytes > soakHeapBound {
		fail("heap grew %d bytes (bound %d)", r.HeapGrowthBytes, soakHeapBound)
	}
}

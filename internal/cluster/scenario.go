package cluster

import (
	"cmp"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"repro/internal/faults"
	"repro/internal/rcr"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// Scenario runner: the cluster tier's chaos soak, in virtual time. A
// pool of in-memory synthetic shards runs under one control plane —
// controlCores stepped directly: no driver, no socket, no host clock —
// while seeded fault tiers compose on top and the global budget keeps
// being re-partitioned. Every actor (the feeder, each replica's poll
// loop, the WAN flusher, the leader-kill and membership drivers, the
// run itself) is a task of one cooperative scheduler (vsched.go), so a
// run is a pure function of its Scenario: the same seed gives the same
// report and the same journal bytes on any host under any load.
// (fleet.go is the full-stack host-time counterpart; the client under
// faults is resilience.TestClientCorpus's subject, the socket boundary
// rcr's named tests', the driver's plumbing TestAggregatorDriverOverSockets'.)
//
// The Scenario's shape selects the tiers:
//
//   - Replicas == 0: one non-HA core under the shard tier
//     (faults.FleetSchedule), audited at the SetCap seam.
//   - Replicas ≥ 2: HA replicas (ha.go), every shard carrying a real
//     rcr.FenceGuard that outlives shard restarts, with the WAN tier
//     (faults.WANSchedule) on top of the shard tier; audited at the
//     guards' apply seam, the only place a cap can land.
//   - Peak > Shards: additionally the membership tier
//     (faults.MembershipSchedule: join storms, dead-on-arrival joins,
//     forced decommissions, drains, re-joins under prior identity),
//     played by a driver that behaves like an operator. The shard
//     restart tier is off here: membership churn is the shard-lifecycle
//     chaos, and a schedule-driven restart of a decommissioned shard
//     would violate the clean-departure gate by design.
//
// A shard is a beat counter, an up flag and its guard. An observation
// is the shard's current snapshot handed to a core at poll time; while
// a fault suppresses that (replica, shard) delivery the core keeps
// seeing the last one delivered — the driver's last-known-good cache.
// What each fault kind means without a socket (also docs/cluster.md):
//
//   - ServerRestart: up flag off for the window — no beats, no
//     deliveries, fenced writes fail in transport — then a fresh
//     incarnation whose beat restarts at 1; the guard persists.
//   - ConnReset: deliveries from that shard suppressed for the window.
//   - SlowLoris: nothing. It attacks rcr.Server admission, which
//     rcr's named socket tests cover; the generator
//     still draws it (plans are pinned) and the runner ignores it.
//   - NetPartition DirSub/DirBoth: that (replica, shard) delivery
//     suppressed for the whole window (stricter than over a socket,
//     where only new dials were refused); DirWrite/DirBoth: GateWrite
//     drops the write.
//   - NetLatency: the writing replica's task sleeps for the delay, its
//     poll half done, so other tasks interleave with its writes.
//   - SplitBrain: writes held in the injector until Flush delivers them
//     after the window, to bounce off the fences.
//   - LeaderKill: the replica's task is killed where it sleeps and its
//     core dropped; at the window's end a fresh core takes the slot.
//   - membership ops: as scheduled; "server up" is the shard's flag.
//
// One auditor sees every cap application in a single serialized order
// and checks, after each one: conservation (Σ applied caps ≤ budget,
// with a departed member's watts leaving the sum before any survivor's
// increase can land), fenced-write safety (the applying fence never
// regresses on a shard), single leadership (no cap lands under fence f
// once a strictly higher fence has been actuating for more than a poll
// period) and hand-off latency (leader kill → first cap under a higher
// fence). After the budget the run settles with bounded patience and
// is gated on convergence and clean departure.

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
	// Budget is the virtual-time length of the run. Zero selects 2 s;
	// every fault window closes by 64% of it, leaving a convergence tail.
	Budget time.Duration
	// Period is the poll/repartition cadence. Zero selects 10 ms; the
	// lease TTL and every latency bound scale with it.
	Period time.Duration
}

const (
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

// scenarioPlan is a Scenario with defaults applied and every fault
// schedule generated: everything about a run that is a pure function of
// its config.
type scenarioPlan struct {
	cfg       Scenario
	ttl       time.Duration
	global    units.Watts // 60 W per shard at the high-water fleet: binding, and above Σ floors through every transient
	ha, churn bool

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
	p := &scenarioPlan{ha: cfg.Replicas >= 2, churn: cfg.Peak > cfg.Shards}
	if cfg.Replicas < 0 || cfg.Replicas == 1 {
		return nil, fmt.Errorf("cluster: scenario needs 0 or ≥ 2 replicas, got %d", cfg.Replicas)
	}
	if p.churn && !p.ha {
		return nil, fmt.Errorf("cluster: the membership tier (Peak %d > Shards %d) needs an HA control plane", cfg.Peak, cfg.Shards)
	}
	p.cfg, p.ttl = cfg, soakLeasePeriods*cfg.Period

	horizon := cfg.Budget * 4 / 5
	p.base, p.pool = cfg.Shards, cfg.Shards
	if p.churn {
		p.members = faults.GenerateMembershipSchedule(cfg.Seed, cfg.Shards, cfg.Peak, horizon)
		// The pool covers every identity the schedule will ever use;
		// shards beyond the base exist from the start (guard included —
		// a node's fence ledger is durable across its lives) but are only
		// up while the member is in the fleet.
		p.base, p.pool = p.members.Base, p.members.Base
		for _, ev := range p.members.Events {
			if ev.Shard+1 > p.pool {
				p.pool = ev.Shard + 1
			}
		}
		p.final, p.clear = p.members.FinalFleet(), faults.ClearTime(p.members.Events)
		p.global = units.Watts(60 * float64(cfg.Peak))
	} else {
		p.fleet = faults.GenerateFleetSchedule(cfg.Seed, cfg.Shards, horizon)
		p.clear = faults.ClearTime(p.fleet.Events)
		p.global = units.Watts(60 * float64(cfg.Shards))
	}
	if p.ha {
		p.wan = faults.GenerateWANSchedule(cfg.Seed, cfg.Replicas, p.pool, horizon)
		p.clear = max(p.clear, faults.ClearTime(p.wan.Events))
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
	ShardKills  uint64 // shard kill/restart cycles performed
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
	LeadersAtEnd           int
	MembersAtEnd           int
	HealthyAtEnd           int
	FinalFleetOK           bool // leader's registry matches the replayed final fleet
	Converged              bool
	FinalCapsSumW          float64

	// JournalDigest is the SHA-256 of the run's decision journal as
	// JSONL: two runs of one Scenario must agree on it byte for byte.
	JournalDigest string

	Violations []string
}

// Passed reports whether every invariant held.
func (r *ScenarioReport) Passed() bool { return len(r.Violations) == 0 }

// Summary renders the report as one line, with a segment per tier the
// scenario selected.
func (r *ScenarioReport) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed %d: %d shards × %d replicas, %d polls, %d repartitions, %d applies",
		r.Seed, r.Shards, r.Replicas, r.Polls, r.Repartitions, r.CapApplies)
	if r.Peak == r.Shards {
		fmt.Fprintf(&b, "; shard tier: %d events, %d kills, %d restarts-seen", r.Events, r.ShardKills, r.RestartsSeen)
	}
	if r.Replicas > 0 {
		fmt.Fprintf(&b, "; wan tier: %d events, %d elections, %d demotions, %d leader-kills, %d rejects, %d retries, %d dropped/%d held/%d flushed, handoff median %v, %d fence-violations, %d double-leader, leaders %d",
			r.WANEvents, r.Elections, r.Demotions, r.LeaderKills, r.FenceRejects, r.CapRetries,
			r.WANDropped, r.WANHeld, r.WANFlushed, r.HandoffMedian, r.FencedWriteViolations, r.DoubleLeaderApplies, r.LeadersAtEnd)
	}
	if r.Peak > r.Shards {
		fmt.Fprintf(&b, "; membership tier: fleet %d->%d->%d, %d events, %d joins, %d drains (%d clean/%d forced), %d decommissions, %d op-failures, %d repairs, final-fleet %v",
			r.Shards, r.Peak, r.MembersAtEnd, r.MemEvents, r.Joins, r.Drains, r.CleanDrains, r.ForcedDrains,
			r.Decommissions, r.OpFailures, r.OpRepairs, r.FinalFleetOK)
	}
	fmt.Fprintf(&b, "; %d conservation-violations, healthy %d/%d, converged %v, journal %.12s",
		r.ConservationViolations, r.HealthyAtEnd, r.MembersAtEnd, r.Converged, r.JournalDigest)
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
	clock  func() time.Duration

	caps         []float64 // per shard; 0 = never assigned, or retired
	lastFence    []uint64
	firstSeen    map[uint64]time.Duration // fence → first accepted apply
	applies      uint64
	conservation uint64
	fenceRegress uint64
	doubleLeader uint64
	kills        []*killMark
}

func (a *applyAuditor) apply(shard int, capW float64, fence uint64) {
	now := a.clock()
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

// handoffs returns the kill→takeover gaps that resolved by limit.
func (a *applyAuditor) handoffs(limit time.Duration) []time.Duration {
	var hs []time.Duration
	for _, k := range a.kills {
		if k.handoff > 0 && k.at+k.handoff <= limit {
			hs = append(hs, k.handoff)
		}
	}
	return hs
}

// scenarioShard is one synthetic shard: an up flag, the beat counter of
// its current incarnation and, under HA, the node's fence guard, which
// outlives incarnations the way a real node's controller-side fence
// ratchet survives daemon restarts.
type scenarioShard struct {
	id     int
	up     bool
	beat   float64       // 0 = this incarnation has not sampled yet
	beatAt time.Duration // when beat last advanced
	fence  *rcr.FenceGuard
}

// start brings a fresh incarnation up — its heartbeat restarts from 1,
// exactly what a shard crash looks like to the aggregator. Starting a
// shard that is already up is a no-op: two drivers powering the same
// node on (a delayed join racing a re-join) share the incarnation.
func (s *scenarioShard) start() {
	if !s.up {
		s.up, s.beat = true, 0
	}
}

// snapshotInto writes the shard's current sample into snap, reusing its
// storage: heartbeat, power and memory concurrency, and the lease state
// the guard mirrors into a real shard's blackboard. Power follows the
// applied cap — a capped shard draws min(demand, cap) — so the
// aggregator's partitioning visibly shapes the fleet it observes. Even
// shards are memory-bound (high concurrency near the knee, low
// headroom), odd shards compute-bound (low concurrency, high headroom):
// the skew that makes proportional partitioning differ from an equal
// split.
func (s *scenarioShard) snapshotInto(snap *rcr.Snapshot, now time.Duration, cap float64) {
	demand, conc := 150.0, 4.0 // compute-bound
	if s.id%2 == 0 {
		demand, conc = 100.0, 26.0 // memory-bound, near the 28-ref knee
	}
	power := demand
	if cap > 0 && cap < power {
		power = cap
	}
	power = max(power+3*float64(int(s.beat)%3-1), 0) // ±3 W sampling ripple
	snap.Now = now
	sys := snap.System[:0]
	if s.fence != nil {
		st := s.fence.State()
		sys = append(sys,
			rcr.MeterValue{Name: rcr.MeterFence, Value: float64(st.Fence), Updated: now},
			rcr.MeterValue{Name: rcr.MeterLeaseExpiry, Value: st.Expiry.Seconds(), Updated: now})
		if st.HasApplied {
			sys = append(sys, rcr.MeterValue{Name: rcr.MeterFencedCap, Value: st.Applied, Updated: now})
		}
	}
	if s.beat > 0 {
		sys = append(sys, rcr.MeterValue{Name: rcr.MeterHeartbeat, Value: s.beat, Updated: s.beatAt})
	}
	snap.System = sys
	if snap.Sockets == nil {
		snap.Sockets = []rcr.DomainSnap{{Meters: make([]rcr.MeterValue, 2)}}
	}
	snap.Sockets[0].Meters[0] = rcr.MeterValue{Name: rcr.MeterPower, Value: power, Updated: s.beatAt}
	snap.Sockets[0].Meters[1] = rcr.MeterValue{Name: rcr.MeterMemConcurrency, Value: conc, Updated: s.beatAt}
}

// replicaSlot is one restartable control-plane replica: its core and
// the task that polls it.
type replicaSlot struct {
	core *controlCore
	task *vtask
}

// scenarioRun is the live state of one run.
type scenarioRun struct {
	*scenarioPlan
	*vsched
	rep     *ScenarioReport
	reg     *telemetry.Registry
	journal *telemetry.Journal
	auditor *applyAuditor
	inj     *faults.WANInjector // ha only

	shards    []*scenarioShard
	endpoints []ShardEndpoint
	replicas  []*replicaSlot // nil while a killed slot awaits its rebuild
	feeder    *vtask
	drivers   int // fault-tier tasks still running
}

// RunScenario executes one scenario and audits it.
func RunScenario(cfg Scenario) (*ScenarioReport, error) {
	r, err := runScenario(cfg)
	if err != nil {
		return nil, err
	}
	return r.rep, nil
}

// runScenario is RunScenario keeping the run's state — journal
// included — for the caller to look into.
func runScenario(cfg Scenario) (*scenarioRun, error) {
	plan, err := planScenario(cfg)
	if err != nil {
		return nil, err
	}
	// The journal is sized to the fleet, like the traffic it records (the
	// corpus shapes write a few hundred records, 4→64→4 under a thousand):
	// its preallocation is the largest single cost of a short run.
	r := &scenarioRun{scenarioPlan: plan, vsched: &vsched{parked: make(chan bool)}, reg: telemetry.NewRegistry(),
		journal: telemetry.NewJournal(max(512, 64*plan.pool), 1)}
	r.rep = &ScenarioReport{
		Seed: plan.cfg.Seed, Shards: plan.base, Peak: max(plan.cfg.Peak, plan.base), Replicas: plan.cfg.Replicas,
		Events: len(plan.fleet.Events), WANEvents: len(plan.wan.Events), MemEvents: len(plan.members.Events),
		LeaseTTL: plan.ttl, ClearTime: plan.clear,
	}
	r.start()
	r.startFaultTiers()
	// The run itself: let the faults play out, then settle and tear down.
	r.spawn(func() {
		r.sleepUntil(r.cfg.Budget)
		for r.drivers > 0 {
			r.sleep(r.cfg.Period / 2)
		}
		if r.ha {
			r.inj.Flush(r.cfg.Budget * 2) // late split-brain deliveries must bounce off fences
		}
		r.settle()
		// The poll loops and the feeder never return by themselves.
		for _, slot := range r.replicas {
			if slot != nil {
				r.kill(slot.task)
			}
		}
		r.kill(r.feeder)
	})
	r.run()
	r.collect()
	r.rep.audit(plan)
	return r, nil
}

// start brings up the shard pool, the replica slots and the feeder.
func (r *scenarioRun) start() {
	r.auditor = &applyAuditor{
		global:    float64(r.global),
		period:    r.cfg.Period,
		clock:     r.clock,
		caps:      make([]float64, r.pool),
		lastFence: make([]uint64, r.pool),
		firstSeen: make(map[uint64]time.Duration),
	}
	if r.ha {
		r.inj = faults.NewWANInjector(r.wan, r.sleep)
	}

	r.shards = make([]*scenarioShard, r.pool)
	r.endpoints = make([]ShardEndpoint, r.pool)
	for i := range r.shards {
		sh := &scenarioShard{id: i, up: i < r.base}
		if r.ha {
			// The guard actuates straight into the auditor.
			sh.fence = rcr.NewFenceGuard(r.clock, func(capW float64, fence uint64) error {
				r.auditor.apply(i, capW, fence)
				return nil
			})
			sh.fence.Instrument(r.reg)
			sh.fence.Journal(r.journal)
		}
		r.shards[i] = sh
		r.endpoints[i] = ShardEndpoint{ID: i, Network: "unix", Addr: fmt.Sprintf("shard-%d", i)} // never dialled: the CLSM frame only encodes unix and tcp
	}

	// Feeder: one task ticks the whole pool; a down shard ignores it.
	r.feeder = r.spawn(func() {
		for {
			r.sleep(soakFeedPeriod)
			for _, sh := range r.shards {
				if sh.up {
					sh.beat, sh.beatAt = sh.beat+1, r.now
				}
			}
		}
	})
	r.replicas = make([]*replicaSlot, max(r.cfg.Replicas, 1))
	for i := range r.replicas {
		r.replicas[i] = r.buildReplica(i, 0)
	}
}

var errNoSnapshot = errors.New("cluster: no snapshot delivered yet")

// source is the whole transport between shard sh and one slot of
// replica idx: at poll time the shard's current snapshot is delivered
// unless the shard is down or a fault window suppresses the delivery,
// in which case the slot keeps serving the last one delivered.
func (r *scenarioRun) source(idx int, sh *scenarioShard) SnapshotSource {
	var last rcr.Snapshot
	delivered := false
	return func() (rcr.Snapshot, error) {
		suppressed := !sh.up || (r.ha && r.inj.SubBlocked(idx, sh.id, r.now)) ||
			r.fleet.ActiveOn(sh.id, faults.ConnReset, r.now)
		if !suppressed {
			sh.snapshotInto(&last, r.now, r.auditor.caps[sh.id])
			delivered = true
		}
		if !delivered {
			return rcr.Snapshot{}, errNoSnapshot
		}
		return last, nil
	}
}

// gatedWrite routes one fenced write through the WAN injector: dropped
// by a partition, delayed (the writing task sleeps, and is gone for good
// if its replica is killed meanwhile) or captured by a split-brain
// window and delivered later by the flusher, nobody left waiting for the
// ack. What gets through reaches the guard only while the shard is up:
// a killed, restarting or departed shard cannot ack, exactly like a dead
// daemon — a transport error to the leader, whose lease renewal on this
// shard fails; late split-brain deliveries to a departed member bounce.
func gatedWrite(r *scenarioRun, idx int) func(int, rcr.MemWrite) (rcr.MemAck, error) {
	return func(shard int, w rcr.MemWrite) (rcr.MemAck, error) {
		var ack rcr.MemAck
		err := r.inj.GateWrite(idx, shard, r.now, func() error {
			if !r.shards[shard].up {
				return fmt.Errorf("shard %d: down (injected)", shard)
			}
			ack = r.shards[shard].fence.OfferMem(w)
			return nil
		})
		return ack, err
	}
}

// buildReplica builds the core for one replica slot and starts its poll
// loop. A killed replica's slot is rebuilt with a fresh core carrying
// the same ID — a restarted daemon, not a new peer — and a
// generation-salted jitter seed. Every replica, rebuilt ones included,
// starts from the static base fleet, the way a restarted daemon reads
// its stale config file; under the membership tier it learns the actual
// fleet by adopting the committed record its campaign acks return. The
// config is static and planScenario has vetted the shape, so a
// constructor error here is a harness bug and panics.
func (r *scenarioRun) buildReplica(idx, gen int) *replicaSlot {
	acfg := AggregatorConfig{
		Shards:        r.endpoints[:r.base],
		Global:        r.global,
		Floor:         10,
		Max:           200,
		Period:        r.cfg.Period,
		HealthHorizon: 6 * r.cfg.Period,
		Clock:         r.clock,
		Telemetry:     r.reg,
		Journal:       r.journal,
	}
	if r.ha {
		// Every fenced write rides the membership op, so the committed
		// record is replicated and fetched through the same gated,
		// fault-injected path as the caps.
		acfg.HA = &HAConfig{
			ID:         uint32(idx + 1),
			LeaseTTL:   r.ttl,
			JitterSeed: r.cfg.Seed ^ uint64(idx+1)<<40 ^ uint64(gen)<<8,
			WriteMem:   gatedWrite(r, idx),
		}
	} else {
		acfg.SetCap = func(shard int, cap units.Watts) error {
			r.auditor.apply(shard, float64(cap), 0)
			return nil
		}
	}
	core, err := newControlCore(acfg, func(mb Member) (SnapshotSource, error) {
		return r.source(idx, r.shards[mb.ID]), nil
	}, nil)
	if err != nil {
		panic(err)
	}
	// The poll loop keeps a ticker's cadence: a poll that overran its
	// period (latency windows) is followed by the one missed tick at
	// once, then the cadence resumes.
	task := r.spawn(func() {
		for next := r.now + r.cfg.Period; ; next = max(next+r.cfg.Period, r.now) {
			r.sleepUntil(next)
			core.Poll()
		}
	})
	return &replicaSlot{core: core, task: task}
}

// authority resolves the control plane's active element: among
// replicas claiming leadership, the one with the highest fence (a
// partitioned stale claimant still inside its old lease may also
// claim). The non-HA tier's lone core always is. It also returns how
// many replicas claim; slot is -1 when none does. It reads the cores
// directly — a core parked mid-poll in a latency window holds no lock
// a reader could block on.
func (r *scenarioRun) authority() (slot int, core *controlCore, st AggregatorStatus, claimants int) {
	slot = -1
	for i, rs := range r.replicas {
		if rs == nil {
			continue
		}
		s := rs.core.Status()
		if r.ha && !s.Leader {
			continue
		}
		claimants++
		if s.Fence >= st.Fence {
			slot, core, st = i, rs.core, s
		}
	}
	return slot, core, st, claimants
}

// drive runs one fault-tier driver as a task the run waits for.
func (r *scenarioRun) drive(fn func()) {
	r.drivers++
	r.spawn(func() {
		defer func() { r.drivers-- }()
		fn()
	})
}

// startFaultTiers launches the drivers of every tier the plan selects.
func (r *scenarioRun) startFaultTiers() {
	if !r.churn {
		// Shard tier: each shard's restart windows in start order — the
		// shard dies at a window's start and a fresh incarnation comes
		// back at its end. (ConnReset windows act inside source.)
		for _, sh := range r.shards {
			var wins []faults.Window
			for _, ev := range r.fleet.Events {
				if ev.Shard == sh.id && ev.Kind == faults.ServerRestart {
					wins = append(wins, ev.Window)
				}
			}
			if len(wins) == 0 {
				continue
			}
			slices.SortStableFunc(wins, func(a, b faults.Window) int { return cmp.Compare(a.Start, b.Start) })
			r.drive(func() {
				for _, w := range wins {
					r.sleepUntil(w.Start)
					if r.now >= r.cfg.Budget {
						return
					}
					sh.up = false
					r.sleepUntil(w.End)
					sh.start()
					r.rep.ShardKills++
				}
			})
		}
	} else {
		r.drive(r.driveMembership)
	}
	if r.ha {
		// WAN tier: partitions, latency and split-brain capture act inside
		// gatedWrite and source; the flusher releases held writes when
		// their window closes — the delayed delivery the fence exists for.
		r.drive(func() {
			for r.now < r.cfg.Budget {
				r.sleep(r.cfg.Period)
				r.inj.Flush(r.now)
			}
		})
		r.drive(r.driveLeaderKills)
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
		if r.now >= r.cfg.Budget {
			return
		}
		victim, _, _, _ := r.authority()
		for mid := ev.Start + (ev.End-ev.Start)/2; victim < 0 && r.now < mid; victim, _, _, _ = r.authority() {
			r.sleep(r.cfg.Period / 2)
		}
		if victim < 0 {
			victim = ev.Agg % r.cfg.Replicas
		}
		var fmax uint64
		for _, sh := range r.shards {
			if st := sh.fence.State(); st.Fence > fmax {
				fmax = st.Fence
			}
		}
		slot := r.replicas[victim]
		r.replicas[victim] = nil
		if slot == nil { // advisory slot still rebuilding from a prior kill
			continue
		}
		// Only a kill that removes the fleet's actual authority has a
		// hand-off to measure; killing a stale claimant or an idle standby
		// leaves the real leader running.
		if st := slot.core.Status(); st.Leader && st.Fence >= fmax {
			r.auditor.kills = append(r.auditor.kills, &killMark{at: r.now, fence: fmax})
		}
		r.kill(slot.task)
		r.rep.LeaderKills++
		r.sleepUntil(ev.End)
		r.replicas[victim] = r.buildReplica(victim, 1+int(r.rep.LeaderKills))
	}
}

// Membership driver. It plays the schedule the way an operator would:
// it owns the shard nodes (a shard comes up before its join, goes down
// at its crash instant, powers off only after a drain completes) and
// applies every registry op to whichever replica currently leads. Ops
// fire at their scheduled instant, each as a task of its own; the
// registry write retries against whichever replica leads until the op
// lands or the deadline passes, because an op accepted by a leader that
// is killed before replicating it is simply gone — the operator's retry
// is part of the protocol, and the settle phase re-asserts anything
// that stayed lost.
func (r *scenarioRun) driveMembership() {
	for _, ev := range r.members.Events {
		r.sleepUntil(ev.At)
		if r.now >= r.cfg.Budget {
			return
		}
		r.drive(func() { r.runMemberEvent(ev) })
	}
}

func (r *scenarioRun) opDeadline(at time.Duration) time.Duration {
	return min(at+8*r.ttl, r.cfg.Budget)
}

// withLeader applies op to the current authority's registry and waits
// for it to become durable, until deadline.
func (r *scenarioRun) withLeader(deadline time.Duration, op func(m *Membership) error) bool {
	for {
		if _, core, _, _ := r.authority(); core != nil {
			if err := op(core.members); err == nil {
				// In the leader's registry is not yet done: the op is
				// durable only once the epoch carrying it is acked by a
				// quorum of guards. A leader killed before that takes the
				// only copy with it — a successor elected from a quorum
				// adopts a record without the op. Wait for durability,
				// re-issuing against any new leader (the ops are
				// idempotent state checks).
				for cur := core; cur == core; _, cur, _, _ = r.authority() {
					if core.MembershipDurable() {
						return true
					}
					if r.now >= deadline {
						return false
					}
					r.sleep(r.cfg.Period / 2)
				}
				continue // authority moved: re-issue against its successor
			}
		}
		if r.now >= deadline {
			return false
		}
		r.sleep(r.cfg.Period / 2)
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
// requires: shard down (no further apply can land), enforcement
// registers power-cycled (a rejoining incarnation must not resurrect a
// cap ledger whose watts the fleet already reclaimed), audited cap
// zeroed (the watts leave the audited sum). Only after it may the
// registry op hand the watts back to the pool, so the sum is down
// before any survivor's increase arrives and the conservation check
// stays strict across the hand-back.
func (r *scenarioRun) powerOff(id int) {
	r.shards[id].up = false
	r.shards[id].fence.PowerCycle()
	r.auditor.caps[id] = 0
}

// stopAndDecommission is every departure's final step.
func (r *scenarioRun) stopAndDecommission(id int, deadline time.Duration) {
	r.powerOff(id)
	if !r.withLeader(deadline, decomOp(id)) {
		r.rep.OpFailures++
	}
}

// startAndJoin boots the node and admits it.
func (r *scenarioRun) startAndJoin(id int, deadline time.Duration) {
	r.shards[id].start()
	if !r.withLeader(deadline, r.joinOp(id)) {
		r.rep.OpFailures++
	}
}

func (r *scenarioRun) runMemberEvent(ev faults.MembershipEvent) {
	switch ev.Op {
	case faults.OpJoin:
		r.startAndJoin(ev.Shard, r.opDeadline(ev.At))
	case faults.OpJoinCrash:
		// Dead on arrival: whether the join landed is immaterial, the
		// crash and its clean-up are the subject.
		r.shards[ev.Shard].start()
		r.withLeader(r.opDeadline(ev.At), r.joinOp(ev.Shard))
		r.sleepUntil(ev.At + ev.Dwell)
		r.stopAndDecommission(ev.Shard, r.opDeadline(ev.At+ev.Dwell))
	case faults.OpDecommission:
		r.stopAndDecommission(ev.Shard, r.opDeadline(ev.At))
	case faults.OpDrain:
		if !r.withLeader(r.opDeadline(ev.At), drainOp(ev.Shard)) {
			r.rep.OpFailures++
		}
		// Wait out the dwell for the leader to step the member to its
		// floor and mark it Drained; an operator whose patience runs out
		// forces the member off anyway — the registry op, not the drain
		// ceremony, is what returns the watts.
		patience := min(ev.At+ev.Dwell+4*r.ttl, r.cfg.Budget)
		drained := false
		for !drained && r.now < patience {
			if _, core, _, _ := r.authority(); core != nil {
				mb, ok := core.members.Get(ev.Shard)
				drained = !ok || !mb.State.InFleet() || mb.State == MemberDrained
			}
			if !drained {
				r.sleep(r.cfg.Period / 2)
			}
		}
		if drained {
			r.rep.CleanDrains++
		} else {
			r.rep.ForcedDrains++
		}
		r.stopAndDecommission(ev.Shard, r.opDeadline(patience))
	case faults.OpRejoin:
		r.stopAndDecommission(ev.Shard, r.opDeadline(ev.At))
		r.sleepUntil(ev.At + ev.Dwell)
		if r.now < r.cfg.Budget {
			r.startAndJoin(ev.Shard, r.opDeadline(ev.At+ev.Dwell))
		}
	}
}

// fleetRepairs is one operator reconcile step toward the planned final
// fleet, as a decision: which shards to power on, which members the
// leader's book lists outside the plan (power off, then decommission),
// which planned members its book is missing (join), and which shards
// are up outside the plan without the leader's book ever having listed
// them (power off).
type fleetRepairs struct {
	powerOn, decommission, join, powerOff []int
}

func (f fleetRepairs) none() bool {
	return len(f.powerOn)+len(f.decommission)+len(f.join)+len(f.powerOff) == 0
}

// planRepairs decides the reconcile step from the final fleet, which
// pool shards are up, and every live replica's registry (leader
// indexes the authority's, -1 when the plane is leaderless).
func planRepairs(final []int, up []bool, books [][]Member, leader int) fleetRepairs {
	var f fleetRepairs
	want := make(map[int]bool, len(final))
	on := make(map[int]bool)
	// Power the final fleet's shards back on first, leader or not: a
	// run whose ops failed during a no-leader window may have stopped
	// enough shards to destroy election quorum, and only restarted
	// shards can grant the campaign that restores a leader.
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
		// fleet — so restarting final shards alone can leave every
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
	// any are left: a shard up outside the final fleet is a departure
	// that never completed.
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
	for _, id := range f.powerOn {
		r.shards[id].start()
		r.rep.OpRepairs++
	}
	for _, id := range f.decommission {
		r.powerOff(id)
		if m.Decommission(id) == nil {
			r.rep.OpRepairs++
		}
	}
	for _, id := range f.join {
		if m.Join(r.endpoints[id]) == nil {
			r.rep.OpRepairs++
		}
	}
	for _, id := range f.powerOff {
		r.powerOff(id)
		r.rep.OpRepairs++
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
//     jitter + campaign), and that cycle can straddle the budget's end;
//   - membership: additionally the leader's registry equals the
//     replayed final fleet and no shard is up outside it, with the
//     operator reconciling the fleet to its plan on every pass —
//     re-asserting ops a mid-run leader accepted and then lost with
//     its life.
//
// In every tier the authority must also have landed a cap under its own
// fence: a leader elected in the run's last moments is still claiming
// the fleet, and a plane that has not actuated has not taken over,
// however healthy its census reads.
//
// Safety invariants are not part of this: they are audited at every
// apply, during the settle phase included.
func (r *scenarioRun) settle() {
	patience := 6 * r.ttl
	if r.churn {
		patience = 10 * r.ttl
	}
	rep := r.rep
	for deadline := r.now + patience; ; r.sleep(r.cfg.Period / 2) {
		slot, core, st, leaders := r.authority()
		rep.LeadersAtEnd, rep.HealthyAtEnd, rep.MembersAtEnd = leaders, st.Healthy, st.Shards
		rep.Polls, rep.LastChange, rep.RestartsSeen = st.Polls, st.LastChange, st.ShardRestarts
		rep.FinalCapsSumW = float64(st.CapsSum)
		var todo fleetRepairs
		_, actuated := r.auditor.firstSeen[st.Fence]
		steering := leaders == 1 && actuated
		switch {
		case !r.ha:
			rep.Converged = steering && core.ConvergedSince(soakConvergeK)
		case !r.churn:
			rep.Converged = steering && st.Healthy == r.pool
		default:
			books := make([][]Member, len(r.replicas))
			for i, rs := range r.replicas {
				if rs != nil {
					books[i] = rs.core.members.Members()
				}
			}
			up := make([]bool, r.pool)
			for i, sh := range r.shards {
				up[i] = sh.up
			}
			todo = planRepairs(r.final, up, books, slot)
			rep.FinalFleetOK = slot >= 0 && fleetSettled(r.final, books[slot], st.Healthy)
			rep.Converged = steering && rep.FinalFleetOK && todo.none()
		}
		if rep.Converged || r.now >= deadline {
			return
		}
		if !todo.none() {
			var m *Membership
			if core != nil {
				m = core.members
			}
			r.applyRepairs(todo, m)
		}
	}
}

// collect folds the registry, injector, auditor and journal into the
// report.
func (r *scenarioRun) collect() {
	rep, count := r.rep, func(name string) uint64 { return r.reg.Counter(name).Value() }
	rep.Repartitions = count("cluster_repartitions_total")
	rep.Elections = count("cluster_leader_elections_total")
	rep.Demotions = count("cluster_leader_demotions_total")
	rep.FenceGrants = count("cluster_fence_grants_total")
	rep.FenceRejects = count("cluster_fence_rejects_total")
	rep.CapRetries = count("cluster_cap_retries_total")
	rep.Joins = count("cluster_member_joins_total")
	rep.Drains = count("cluster_member_drains_total")
	rep.Decommissions = count("cluster_member_decommissions_total")
	if r.ha {
		ws := r.inj.Stats()
		rep.WANDropped, rep.WANDelayed, rep.WANHeld, rep.WANFlushed = ws.Dropped, ws.Delayed, ws.Captured, ws.Flushed
	}
	a := r.auditor
	limit := time.Duration(math.MaxInt64)
	rep.Handoffs = a.handoffs(limit)
	// Under the membership tier the latency bound judges in-run
	// hand-offs only. A churn run can legitimately destroy election
	// quorum (enough member shards stopped by failed-op fallout that no
	// candidate's book can grant a majority); the takeover then waits
	// for the settle phase's repairs, and its gap measures the outage,
	// not the protocol.
	if r.churn {
		limit = r.cfg.Budget
	}
	if hs := a.handoffs(limit); len(hs) > 0 {
		slices.Sort(hs)
		rep.HandoffMedian = hs[len(hs)/2]
	}
	rep.CapApplies = a.applies
	rep.ConservationViolations = a.conservation
	if !r.ha {
		// The lone core's book is what the fleet enforces, so its own
		// Σ book ≤ budget self-check counts too; a standby's or a freshly
		// adopted book is not, and is not gated.
		rep.ConservationViolations += count("cluster_conservation_violations_total")
	}
	rep.FencedWriteViolations = a.fenceRegress
	rep.DoubleLeaderApplies = a.doubleLeader
	rep.HandoffMarks = len(a.kills)
	h := sha256.New()
	_ = r.journal.WriteJSONL(h) // a hash never fails a write
	rep.JournalDigest = fmt.Sprintf("%x", h.Sum(nil))
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
		// Per-run hand-off bound, in virtual time: 4× TTL per seed absorbs
		// a takeover that collides with a partition window; the corpus
		// gates the median of all hand-offs at the 2×TTL target from the
		// HA design.
		if r.HandoffMedian > 4*r.LeaseTTL {
			fail("hand-off median %v exceeds 4× lease TTL (%v)", r.HandoffMedian, r.LeaseTTL)
		}
	}
	if p.churn {
		if r.Joins == 0 {
			fail("no member ever joined: the churn tier never fired")
		}
		if r.Decommissions == 0 {
			fail("no member was ever decommissioned")
		}
		if !r.FinalFleetOK {
			fail("membership did not converge to the schedule's final fleet (%d members at end)", r.MembersAtEnd)
		}
	}
	if !r.Converged {
		fail("fleet did not converge after the last fault window: %d leaders at end, %d healthy of %d members, caps last changed at poll %d of %d",
			r.LeadersAtEnd, r.HealthyAtEnd, r.MembersAtEnd, r.LastChange, r.Polls)
	}
}

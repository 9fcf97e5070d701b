package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/rcr"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// The cluster-churn scenario is the write-heavy use of the cluster
// plane: two HA aggregator replicas over a fleet whose composition
// changes, every cap and lease renewal a fenced write over a real
// socket into the shard's guard. One cycle is
//
//	steady rounds → join the spares → drain them → decommission them →
//	kill the leader → successor re-asserts the budget → fresh standby
//
// Time is modelled: a manual clock advances one tick per round, so
// lease expiry, election jitter and every count of rounds depend on the
// seed alone, never on host speed.

const (
	churnTick     = 10 * time.Millisecond
	churnLeaseTTL = 200 * time.Millisecond
	churnGrace    = 50 * time.Millisecond
	// churnPhaseLimit bounds the rounds any one phase may take; the
	// slowest (hand-off) needs about (TTL + 2×grace)/tick = 30.
	churnPhaseLimit = 400
)

type replica struct {
	idx     int
	agg     *cluster.Aggregator
	members *cluster.Membership
	cancel  context.CancelFunc
	done    chan error
}

type churnFixture struct {
	cfg       config
	rep       *report
	tr        *tracer
	dir       string
	clockNS   atomic.Int64
	reg       *telemetry.Registry
	shards    []*shard // base fleet, then the spares
	endpoints []cluster.ShardEndpoint
	replicas  []*replica // slot per replica; nil while a slot is dead
	gen       int        // replicas built so far, salts their election jitter
	budget    float64
	rng       *rand.Rand
	demand    []float64
	conc      []float64

	// physical is each node's enforced cap, written at the guards' apply
	// seam (a server goroutine) — what a wattmeter would see, as opposed
	// to any replica's book.
	physMu   sync.Mutex
	physical []float64

	round       int64
	pollSpan    int
	memWrite    int // fenced writes issued
	leaderPolls int
}

func (f *churnFixture) now() time.Duration { return time.Duration(f.clockNS.Load()) }

// enforce sets node i's enforced cap and returns the fleet's new sum.
func (f *churnFixture) enforce(i int, cap float64) float64 {
	f.physMu.Lock()
	defer f.physMu.Unlock()
	f.physical[i] = cap
	sum := 0.0
	for _, c := range f.physical {
		sum += c
	}
	return sum
}

func (f *churnFixture) enforced(i int) float64 {
	f.physMu.Lock()
	defer f.physMu.Unlock()
	return f.physical[i]
}

func setupChurn(cfg config, rep *report) (*churnFixture, error) {
	n := cfg.churnBase + cfg.churnSpares
	f := &churnFixture{
		cfg:      cfg,
		rep:      rep,
		reg:      telemetry.NewRegistry(),
		budget:   float64(wattsPerShard * n),
		rng:      rand.New(rand.NewSource(cfg.seed ^ 0xc4a12)),
		demand:   make([]float64, n),
		conc:     make([]float64, n),
		physical: make([]float64, n),
		replicas: make([]*replica, 2),
		pollSpan: -1,
	}
	var err error
	if f.dir, err = newSockDir(cfg.outDir); err != nil {
		return nil, err
	}
	dlv := newDelivery()
	for i := 0; i < n; i++ {
		guard := rcr.NewFenceGuard(f.now, func(cap float64, _ uint64) error {
			sum := f.enforce(i, cap)
			f.rep.op(sum <= f.budget+capTol, "cluster-churn: enforced caps sum %.3f W over the %.0f W budget", sum, f.budget)
			return nil
		})
		guard.Instrument(f.reg)
		s := &shard{id: i, addr: filepath.Join(f.dir, fmt.Sprintf("%d.sock", i)), clock: f.now, reg: f.reg, guard: guard, dlv: dlv}
		f.shards = append(f.shards, s)
		f.endpoints = append(f.endpoints, cluster.ShardEndpoint{ID: i, Network: "unix", Addr: s.addr})
		// Even shards memory-bound, odd compute-bound, each at its own
		// seeded distance from the knee.
		f.conc[i] = 2 + 6*f.rng.Float64()
		if i%2 == 0 {
			f.conc[i] = 22 + 5*f.rng.Float64()
		}
		f.demand[i] = 90 + 60*f.rng.Float64()
	}
	for _, s := range f.shards[:cfg.churnBase] {
		if err := s.start(); err != nil {
			f.close()
			return nil, err
		}
	}
	// Replicas boot one after the other, so the first wins its election
	// unopposed and the second comes up as its standby. First converged
	// state: a leader elected, the budget fully assigned, a standby
	// watching.
	for idx := range f.replicas {
		if err := f.spawn(idx); err != nil {
			f.close()
			return nil, err
		}
		if _, err := f.until("setup", func() bool { return f.settled(cfg.churnBase) }); err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

// spawn builds a replica into slot idx, configured from the static base
// fleet the way a restarted daemon reads its config file, and waits for
// its streams to attach.
func (f *churnFixture) spawn(idx int) error {
	members, err := cluster.NewMembership(f.endpoints[:f.cfg.churnBase], f.now)
	if err != nil {
		return err
	}
	f.gen++
	agg, err := cluster.NewAggregator(cluster.AggregatorConfig{
		Members:       members,
		Global:        units.Watts(f.budget),
		Floor:         capFloor,
		Max:           capMax,
		Period:        time.Hour, // Run's ticker never fires: the bench drives Poll
		HealthHorizon: 10 * churnTick,
		Clock:         f.now,
		Telemetry:     f.reg,
		Tune:          tuneClient(f.shards),
		HA: &cluster.HAConfig{
			ID:         uint32(idx + 1),
			LeaseTTL:   churnLeaseTTL,
			Grace:      churnGrace,
			JitterSeed: uint64(f.cfg.seed) ^ uint64(idx+1)<<40 ^ uint64(f.gen)<<8,
			WriteMem:   f.writeMem,
		},
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &replica{idx: idx, agg: agg, members: members, cancel: cancel, done: make(chan error, 1)}
	go func() { r.done <- agg.Run(ctx) }()
	f.replicas[idx] = r
	return awaitSubscribers(f.shards[:f.cfg.churnBase], f.live())
}

// writeMem is the HA seam: one fenced write over the shard's socket.
// Every write in this scenario comes from the one replica entitled to
// make it, so anything but an applied ack is a failure.
func (f *churnFixture) writeMem(id int, mw rcr.MemWrite) (rcr.MemAck, error) {
	h := f.tr.begin("cluster.ha.mem_write", f.pollSpan, f.round)
	ctx, cancel := context.WithTimeout(context.Background(), ipcTimeout)
	ack, err := rcr.WriteMem(ctx, "unix", f.endpoints[id].Addr, mw)
	cancel()
	f.tr.end(h)
	f.memWrite++
	f.rep.op(err == nil && ack.Ack.Status == rcr.CapApplied,
		"cluster-churn: round %d: fenced write to shard %d (fence %d seq %d): status %d, err %v",
		f.round, id, mw.Write.Fence, mw.Write.Seq, ack.Ack.Status, err)
	return ack, err
}

func (f *churnFixture) live() int {
	n := 0
	for _, r := range f.replicas {
		if r != nil {
			n++
		}
	}
	return n
}

func (f *churnFixture) leader() *replica {
	var lead *replica
	for _, r := range f.replicas {
		if r != nil && r.agg.Status().Leader {
			if lead != nil {
				return nil // two claimants: no single authority
			}
			lead = r
		}
	}
	return lead
}

func (f *churnFixture) close() {
	for _, r := range f.replicas {
		if r != nil {
			r.cancel()
			<-r.done
		}
	}
	for _, s := range f.shards {
		_ = s.stop() // teardown: the run's results are already in
	}
	os.RemoveAll(f.dir)
}

// step is one modelled tick: the clock advances, every running shard
// publishes a sample, the replicas' streams apply it, and each replica
// polls. It returns the host time of the leader's Poll (0 when no
// replica led this round).
func (f *churnFixture) step() (time.Duration, error) {
	f.round++
	f.clockNS.Add(int64(churnTick))
	for i, s := range f.shards {
		if !s.up() {
			continue
		}
		power := f.demand[i]
		if c := f.enforced(i); c > 0 && c < power {
			power = c
		}
		s.feed(power+3*(f.rng.Float64()-0.5), f.conc[i])
	}
	if err := awaitDelivery(f.shards); err != nil {
		f.rep.op(false, "cluster-churn: %v", err)
		return 0, err
	}
	var leaderPoll time.Duration
	for _, r := range f.replicas {
		if r == nil {
			continue
		}
		led := r.agg.Status().Leader
		name := "cluster.ha.poll.standby"
		if led {
			name = "cluster.ha.poll"
		}
		f.pollSpan = f.tr.begin(name, -1, f.round)
		t0 := time.Now()
		r.agg.Poll()
		d := time.Since(t0)
		f.tr.end(f.pollSpan)
		f.pollSpan = -1
		if led {
			leaderPoll = d
			f.leaderPolls++
		}
	}
	return leaderPoll, nil
}

// until steps until cond holds and returns the rounds it took.
func (f *churnFixture) until(phase string, cond func() bool) (int, error) {
	for n := 1; n <= churnPhaseLimit; n++ {
		if _, err := f.step(); err != nil {
			return n, err
		}
		if cond() {
			return n, nil
		}
	}
	f.rep.op(false, "cluster-churn: %s did not converge within %d rounds", phase, churnPhaseLimit)
	return churnPhaseLimit, fmt.Errorf("cluster-churn: %s did not converge", phase)
}

// settled reports whether exactly one replica leads a fleet of n
// healthy active members with the whole budget assigned — in its book
// and, under its fence, at every guard.
func (f *churnFixture) settled(n int) bool {
	lead := f.leader()
	if lead == nil {
		return false
	}
	st := lead.agg.Status()
	if st.Shards != n || st.Healthy != n || st.Joining+st.Draining+st.Drained != 0 {
		return false
	}
	if math.Abs(float64(st.CapsSum)-f.budget) > capTol {
		return false
	}
	sum := 0.0
	for _, s := range f.shards {
		if !s.up() {
			continue
		}
		if gs := s.guard.State(); gs.Fence != st.Fence {
			return false
		}
		sum += f.enforced(s.id)
	}
	return math.Abs(sum-f.budget) <= capTol
}

// broadcast applies one admin operation to every live replica's
// registry, the way a config push reaches every controller.
func (f *churnFixture) broadcast(what string, op func(*cluster.Membership) error) {
	for _, r := range f.replicas {
		if r != nil {
			err := op(r.members)
			f.rep.op(err == nil, "cluster-churn: %s on replica %d: %v", what, r.idx+1, err)
		}
	}
}

type churnResult struct {
	pollUS     []float64 // leader polls of the steady stretches
	cyclePolls []float64 // join+drain+decommission rounds per cycle
	grow       []float64
	drain      []float64
	shrink     []float64
	handoffMS  []float64
	cycleMS    []float64 // host time of a whole cycle
}

// run repeats the cycle until the budget is spent, finishing the cycle
// in progress.
func (f *churnFixture) run(budget time.Duration, tr *tracer) (churnResult, error) {
	f.tr = tr
	defer func() { f.tr = nil }()
	var res churnResult
	start := time.Now()
	for cycle := 0; cycle == 0 || time.Since(start) < budget; cycle++ {
		t0 := time.Now()
		if err := f.cycle(&res); err != nil {
			return res, err
		}
		res.cycleMS = append(res.cycleMS, float64(time.Since(t0))/1e6)
	}
	return res, nil
}

func (f *churnFixture) cycle(res *churnResult) error {
	base, full := f.cfg.churnBase, f.cfg.churnBase+f.cfg.churnSpares
	spares := f.shards[base:full]

	for i := 0; i < f.cfg.churnSteadyRounds; i++ {
		d, err := f.step()
		if err != nil {
			return err
		}
		if d == 0 {
			f.rep.op(false, "cluster-churn: round %d: no replica led a steady round", f.round)
			return errors.New("cluster-churn: leaderless steady round")
		}
		res.pollUS = append(res.pollUS, us(d))
	}

	// Grow: the spares boot, then join. Each is admitted at the floor and
	// earns its share once a cap write has landed and it heartbeats.
	for _, s := range spares {
		if err := s.start(); err != nil {
			return err
		}
		f.broadcast("join", func(m *cluster.Membership) error { return m.Join(f.endpoints[s.id]) })
	}
	if _, err := f.step(); err != nil { // the replicas reconcile and dial the joiners
		return err
	}
	if err := awaitSubscribers(spares, f.live()); err != nil {
		f.rep.op(false, "cluster-churn: %v", err)
		return err
	}
	grow, err := f.until("grow", func() bool { return f.settled(full) })
	if err != nil {
		return err
	}
	grow++ // the reconcile round above

	// Drain: the spares step down to the floor and park there.
	for _, s := range spares {
		f.broadcast("drain", func(m *cluster.Membership) error { return m.Drain(s.id) })
	}
	drain, err := f.until("drain", func() bool {
		lead := f.leader()
		return lead != nil && lead.agg.Status().Drained == len(spares)
	})
	if err != nil {
		return err
	}

	// Shrink: power the spares off, then decommission them. The node is
	// off before the registry says so, and its watts leave the enforced
	// sum before any survivor can be raised.
	for _, s := range spares {
		if err := s.stop(); err != nil {
			f.rep.op(false, "cluster-churn: stopping shard %d: %v", s.id, err)
		}
		f.enforce(s.id, 0)
		s.guard.PowerCycle()
		f.broadcast("decommission", func(m *cluster.Membership) error { return m.Decommission(s.id) })
	}
	shrink, err := f.until("shrink", func() bool { return f.settled(base) })
	if err != nil {
		return err
	}
	res.grow = append(res.grow, float64(grow))
	res.drain = append(res.drain, float64(drain))
	res.shrink = append(res.shrink, float64(shrink))
	res.cyclePolls = append(res.cyclePolls, float64(grow+drain+shrink))

	// Hand-off: the leader dies; the standby waits out the lease, wins
	// the election and re-commits the whole assignment under its fence.
	lead := f.leader()
	if lead == nil {
		f.rep.op(false, "cluster-churn: round %d: no single leader to kill", f.round)
		return errors.New("cluster-churn: no single leader")
	}
	elections := counterValue(f.reg, "cluster_leader_elections_total")
	lead.cancel()
	<-lead.done
	f.replicas[lead.idx] = nil
	if err := f.flushDeadStreams(); err != nil {
		f.rep.op(false, "cluster-churn: %v", err)
		return err
	}
	handoff, err := f.until("hand-off", func() bool { return f.settled(base) })
	if err != nil {
		return err
	}
	won := counterValue(f.reg, "cluster_leader_elections_total") - elections
	f.rep.op(won == 1, "cluster-churn: round %d: hand-off took %.0f elections, want exactly 1", f.round, won)
	res.handoffMS = append(res.handoffMS, float64(handoff)*float64(churnTick)/1e6)

	if err := f.spawn(lead.idx); err != nil {
		f.rep.op(false, "cluster-churn: fresh standby: %v", err)
		return err
	}
	return nil
}

// flushDeadStreams gets the publishers to notice the killed replica's
// closed streams: a publisher detaches a subscriber on its first failed
// write, so one tick per shard is pushed (the survivors apply it) and
// the bench waits for the attachment counts to drop.
func (f *churnFixture) flushDeadStreams() error {
	live := f.live()
	for _, s := range f.shards {
		if s.up() {
			s.tick(live)
		}
	}
	if err := awaitSubscribers(f.shards, live); err != nil {
		return err
	}
	return awaitDelivery(f.shards)
}

// window files this window's poll median under its end-to-end name.
// The counts are not windowed: they are modelled rounds, the same on a
// fast host and a slow one.
func (r churnResult) window(w windows, sc scale) {
	w.add("churn_poll_p50_us", median(r.pollUS)*sc.sys)
}

func (r *churnResult) merge(o churnResult) {
	r.pollUS = append(r.pollUS, o.pollUS...)
	r.cyclePolls = append(r.cyclePolls, o.cyclePolls...)
	r.grow = append(r.grow, o.grow...)
	r.drain = append(r.drain, o.drain...)
	r.shrink = append(r.shrink, o.shrink...)
	r.handoffMS = append(r.handoffMS, o.handoffMS...)
	r.cycleMS = append(r.cycleMS, o.cycleMS...)
}

// emitCounts reports the two modelled counts over the run's first n
// cycles. A fixed number of cycles, because the counts depend on the seed
// alone and must not vary with how many cycles the host had time for.
func (r churnResult) emitCounts(rep *report, n int) {
	rep.set("member_cycle_polls", median(r.cyclePolls[:n]))
	// The mean, not the median: hand-offs take a whole number of 10 ms
	// rounds, so the median reads 290 for every seed, and a time that
	// reads the same on every run tells the driver nothing.
	rep.set("handoff_model_ms", mean(r.handoffMS[:n]))
	rep.note("handoff_model_ms", fmt.Sprintf("mean of the first %d hand-offs (median %.0f)", n, median(r.handoffMS[:n])))
}

func (f *churnFixture) emitPerLayer(r churnResult, rep *report, tr *tracer) {
	rep.setLatency("cluster.ha.mem_write_us_p50", "cluster.ha.mem_write_us_p99", summarize(tr.durations("cluster.ha.mem_write")))
	rep.set("cluster.ha.writes_per_poll", ratio(float64(f.memWrite), float64(f.leaderPolls)))
	rep.set("cluster.ha.elections", counterValue(f.reg, "cluster_leader_elections_total"))
	rep.set("cluster.ha.demotions", counterValue(f.reg, "cluster_leader_demotions_total"))
	rep.set("cluster.ha.fence_rejects", counterValue(f.reg, "cluster_fence_rejects_total"))
	rep.set("cluster.member.grow_polls", median(r.grow))
	rep.set("cluster.member.drain_polls", median(r.drain))
	rep.set("cluster.member.shrink_polls", median(r.shrink))
	rep.set("cluster.churn_cycle_ms_p50", median(r.cycleMS))
}

// checkInvariants is the scenario's end-of-run gate.
func (f *churnFixture) checkInvariants() {
	v := counterValue(f.reg, "cluster_conservation_violations_total")
	f.rep.op(v == 0, "cluster-churn: aggregators recorded %.0f conservation violations", v)
	f.rep.op(f.leader() != nil, "cluster-churn: not exactly one leader at the end")
}

package cluster

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rcr"
	"repro/internal/resilience"
	"repro/internal/resilience/leak"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// scriptEvent is one scripted push: a snapshot to apply or an error to
// surface from the stream.
type scriptEvent struct {
	snap rcr.Snapshot
	err  error
}

// scriptStream is a scripted SubStream: the test pushes events, the
// client's Subscribe loop consumes them — the same seam the resilience
// client tests use, here under the driver (TestAggregatorGapResyncObservable).
type scriptStream struct {
	ch   chan scriptEvent
	snap rcr.Snapshot
}

func (s *scriptStream) Next(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case ev := <-s.ch:
		if ev.err != nil {
			return ev.err
		}
		s.snap = ev.snap
		return nil
	}
}

func (s *scriptStream) Snapshot() rcr.Snapshot { return s.snap }
func (s *scriptStream) Close() error           { return nil }

// fakeClock is a manually advanced host clock.
type fakeClock struct{ ns atomic.Int64 }

func (c *fakeClock) now() time.Duration      { return time.Duration(c.ns.Load()) }
func (c *fakeClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

// shardSnap builds a shard snapshot: a heartbeat plus one socket with
// the given power and memory concurrency.
func shardSnap(beat, power, conc float64, now time.Duration) rcr.Snapshot {
	return rcr.Snapshot{
		Now:    now,
		System: []rcr.MeterValue{{Name: rcr.MeterHeartbeat, Value: beat, Updated: now}},
		Sockets: []rcr.DomainSnap{{Meters: []rcr.MeterValue{
			{Name: rcr.MeterPower, Value: power, Updated: now},
			{Name: rcr.MeterMemConcurrency, Value: conc, Updated: now},
		}}},
	}
}

// pushedSources is the in-package harnesses' open hook: a slot's source
// serves whatever snapshot the test last put in snaps[id], and
// errNoSnapshot until there is one.
func pushedSources(snaps []*rcr.Snapshot) func(Member) (SnapshotSource, error) {
	return func(mb Member) (SnapshotSource, error) {
		return func() (rcr.Snapshot, error) {
			if snaps[mb.ID] == nil {
				return rcr.Snapshot{}, errNoSnapshot
			}
			return *snaps[mb.ID], nil
		}, nil
	}
}

// aggHarness steps a control core synchronously: push sets the snapshot
// a shard's source serves from then on, and the test polls the core an
// exact number of times — no stream, no goroutine, no wall clock.
type aggHarness struct {
	agg     *controlCore
	snaps   []*rcr.Snapshot // nil until the first push
	clock   *fakeClock
	reg     *telemetry.Registry
	journal *telemetry.Journal
}

func newAggHarness(t testing.TB, shards int, global units.Watts) *aggHarness {
	t.Helper()
	h := &aggHarness{
		clock:   &fakeClock{},
		reg:     telemetry.NewRegistry(),
		journal: telemetry.NewJournal(1024, 1),
		snaps:   make([]*rcr.Snapshot, shards),
	}
	endpoints := make([]ShardEndpoint, shards)
	for i := range endpoints {
		endpoints[i] = ShardEndpoint{ID: i, Network: "unix", Addr: fmt.Sprintf("shard-%d", i)}
	}
	agg, err := newControlCore(AggregatorConfig{
		Shards:        endpoints,
		Global:        global,
		Floor:         10,
		Max:           200,
		HealthHorizon: 100 * time.Millisecond,
		Clock:         h.clock.now,
		SetCap:        func(int, units.Watts) error { return nil },
		Telemetry:     h.reg,
		Journal:       h.journal,
	}, pushedSources(h.snaps), nil)
	if err != nil {
		t.Fatal(err)
	}
	h.agg = agg
	return h
}

// push makes snap the shard's freshest snapshot.
func (h *aggHarness) push(shard int, snap rcr.Snapshot) { h.snaps[shard] = &snap }

// TestAggregatorPartitionsTowardHeadroom: a memory-bound shard (memconc
// at the knee) and a compute-bound shard (far below it) under a binding
// budget — the compute-bound shard must receive the lion's share, the
// sum must respect the budget, and both must sit at or above the floor.
func TestAggregatorPartitionsTowardHeadroom(t *testing.T) {
	leak.Check(t)
	h := newAggHarness(t, 2, 100)
	h.push(0, shardSnap(1, 90, 26, h.clock.now())) // memory-bound
	h.push(1, shardSnap(1, 140, 4, h.clock.now())) // compute-bound
	h.agg.Poll()
	st := h.agg.Status()
	if st.Healthy != 2 || st.CapsSum <= 0 {
		t.Fatalf("one poll over two pushed shards: %d healthy, Σcaps %.1f W", st.Healthy, float64(st.CapsSum))
	}
	if float64(st.CapsSum) > 100+sumEps {
		t.Fatalf("Σcaps %.3f exceeds the 100 W budget", float64(st.CapsSum))
	}
	if st.Caps[1] <= st.Caps[0] {
		t.Errorf("compute-bound shard got %.1f W, memory-bound %.1f W: headroom ignored",
			float64(st.Caps[1]), float64(st.Caps[0]))
	}
	if st.Caps[0] < 10 || st.Caps[1] < 10 {
		t.Errorf("floor violated: %v", st.Caps)
	}
}

// TestAggregatorLendsAndRecovers: a shard whose heartbeat stops moving
// is declared lost, its surplus flows to the survivors, and it gets its
// share back after recovery — both transitions journaled.
func TestAggregatorLendsAndRecovers(t *testing.T) {
	leak.Check(t)
	h := newAggHarness(t, 2, 100)
	h.push(0, shardSnap(1, 60, 12, h.clock.now()))
	h.push(1, shardSnap(1, 60, 12, h.clock.now()))
	h.agg.Poll()
	if n := h.agg.Status().Healthy; n != 2 {
		t.Fatalf("%d healthy after the first poll, want 2", n)
	}
	capsBefore := h.agg.Status().Caps

	// Shard 1 goes dark: clock runs past the horizon while only shard 0
	// keeps beating.
	h.clock.advance(150 * time.Millisecond)
	h.push(0, shardSnap(2, 60, 12, h.clock.now()))
	h.agg.Poll()
	st := h.agg.Status()
	if st.Healthy != 1 {
		t.Fatalf("%d healthy one poll past the horizon, want 1 (shard 1 lost)", st.Healthy)
	}
	if st.Caps[1] != 10 {
		t.Errorf("lost shard holds %.1f W, want its 10 W floor", float64(st.Caps[1]))
	}
	if st.Caps[0] <= capsBefore[0] {
		t.Errorf("survivor's cap %.1f W did not grow from %.1f W", float64(st.Caps[0]), float64(capsBefore[0]))
	}
	if float64(st.CapsSum) > 100+sumEps {
		t.Fatalf("Σcaps %.3f exceeds budget during outage", float64(st.CapsSum))
	}
	if journalHas(h.journal, telemetry.KindShardLost) == 0 {
		t.Error("shard loss not journaled")
	}

	// Recovery: the heartbeat moves again.
	h.push(1, shardSnap(2, 60, 12, h.clock.now()))
	h.agg.Poll()
	st = h.agg.Status()
	if st.Healthy != 2 {
		t.Fatalf("%d healthy one poll after the heartbeat moved, want 2 (shard 1 recovered)", st.Healthy)
	}
	if st.Caps[1] <= 10 {
		t.Errorf("recovered shard still at %.1f W", float64(st.Caps[1]))
	}
	if journalHas(h.journal, telemetry.KindShardRecovered) == 0 {
		t.Error("shard recovery not journaled")
	}
}

// shardBeat reads shard i's incarnation epoch and last heartbeat off the
// core: what a restart bumps and what an applied frame moves.
func (a *controlCore) shardBeat(i int) (epoch uint32, beat float64) {
	return a.shards[i].epoch, a.shards[i].lastBeat
}

// TestAggregatorDetectsRestart: a heartbeat running backwards is a new
// shard incarnation — counted, journaled, and tracked as a new epoch.
func TestAggregatorDetectsRestart(t *testing.T) {
	leak.Check(t)
	h := newAggHarness(t, 1, 100)
	h.push(0, shardSnap(50, 80, 10, h.clock.now()))
	h.agg.Poll()
	if epoch, beat := h.agg.shardBeat(0); epoch != 0 || beat != 50 {
		t.Fatalf("initial shard at epoch %d beat %.0f, want epoch 0 beat 50", epoch, beat)
	}

	h.push(0, shardSnap(2, 80, 10, h.clock.now())) // fresh blackboard: beat restarted
	h.agg.Poll()
	if n := h.agg.Status().ShardRestarts; n != 1 {
		t.Fatalf("%d restarts detected one poll after the beat ran backwards, want 1", n)
	}
	if journalHas(h.journal, telemetry.KindShardRestarted) != 1 {
		t.Errorf("%d restart records, want 1", journalHas(h.journal, telemetry.KindShardRestarted))
	}
	if epoch, beat := h.agg.shardBeat(0); epoch != 1 || beat != 2 {
		t.Errorf("post-restart shard at epoch %d beat %.0f, want epoch 1 beat 2", epoch, beat)
	}
}

// TestAggregatorGapResyncObservable is the regression test for delta-gap
// visibility on the aggregation path: a gap episode inside a shard's
// live stream (dropped deltas during a shard hiccup) must surface as
// exactly one sub_gap_resync journal record and one counter increment
// per episode — and the shard state the aggregator acts on must jump
// from the pre-gap snapshot straight to the resync frame, never through
// a stale merge.
func TestAggregatorGapResyncObservable(t *testing.T) {
	leak.Check(t)
	// The subject is the driver's client, so this one runs the driver: a
	// scripted stream under Run, frames applied by the subscription
	// goroutine, hence polls until a wall deadline.
	clock, reg, journal := &fakeClock{}, telemetry.NewRegistry(), telemetry.NewJournal(1024, 1)
	stream := &scriptStream{ch: make(chan scriptEvent)}
	agg, err := NewAggregator(AggregatorConfig{
		Shards:        []ShardEndpoint{{ID: 0, Network: "unix", Addr: "shard-0"}},
		Global:        100,
		Period:        time.Hour, // Run's ticker never fires; the test drives Poll
		HealthHorizon: 100 * time.Millisecond,
		Clock:         clock.now,
		SetCap:        func(int, units.Watts) error { return nil },
		Telemetry:     reg,
		Journal:       journal,
		Tune: func(_ int, cfg *resilience.ClientConfig) {
			cfg.Subscribe = func(context.Context, string, string) (resilience.SubStream, error) { return stream, nil }
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = agg.Run(ctx) }()
	defer func() { cancel(); <-done }()
	push := func(snap rcr.Snapshot) { stream.ch <- scriptEvent{snap: snap} }
	pollUntil := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if agg.Poll(); cond() {
				return
			}
		}
		t.Fatalf("condition never held: %s", what)
	}
	gapCounter := reg.Counter("resilience_client_gap_resyncs_total")
	beat := func() float64 {
		agg.mu.Lock()
		defer agg.mu.Unlock()
		_, b := agg.core.shardBeat(0)
		return b
	}

	push(shardSnap(10, 80, 10, clock.now()))
	pollUntil("pre-gap frame applied", func() bool { return beat() == 10 })

	// Episode 1: three consecutive gapped deltas, then the server's
	// full-frame resync. Mid-episode the aggregator must still be acting
	// on the pre-gap state, not a partial merge.
	for i := 0; i < 3; i++ {
		stream.ch <- scriptEvent{err: rcr.ErrDeltaGap}
	}
	pollUntil("gap episode journaled", func() bool { return gapCounter.Value() == 1 })
	if b := beat(); b != 10 {
		t.Errorf("mid-gap shard beat %.0f, want the pre-gap 10 (stale merge?)", b)
	}
	push(shardSnap(14, 82, 10, clock.now()))
	pollUntil("resync frame applied", func() bool { return beat() == 14 })
	if got := journalHas(journal, telemetry.KindSubGapResync); got != 1 {
		t.Errorf("%d sub_gap_resync records after one episode, want 1", got)
	}

	// Episode 2 proves per-episode (not per-frame) accounting.
	stream.ch <- scriptEvent{err: rcr.ErrDeltaGap}
	pollUntil("second episode counted", func() bool { return gapCounter.Value() == 2 })
	push(shardSnap(15, 82, 10, clock.now()))
	pollUntil("second resync applied", func() bool { return beat() == 15 })
	if got := journalHas(journal, telemetry.KindSubGapResync); got != 2 {
		t.Errorf("%d sub_gap_resync records after two episodes, want 2", got)
	}
	// A ridden-out gap is not an outage: no loss/resume records, no
	// resubscribe.
	if journalHas(journal, telemetry.KindSubLost) != 0 || journalHas(journal, telemetry.KindSubResumed) != 0 {
		t.Error("gap episodes journaled as outages")
	}
	if v := reg.Counter("resilience_client_resubscribes_total").Value(); v != 0 {
		t.Errorf("%d resubscribes during in-stream gaps, want 0", v)
	}
}

// countedStream counts live subscription streams: +1 when the driver's
// client opens one, −1 when the client's Subscribe loop closes it on its
// way out.
type countedStream struct {
	resilience.SubStream
	open *atomic.Int64
}

func (s countedStream) Close() error { s.open.Add(-1); return s.SubStream.Close() }

// hostClock is an rcr.Clock reading host time since the test began.
type hostClock func() time.Duration

func (c hostClock) Now() time.Duration { return c() }

// shardServer is a restartable rcrd on a unix socket. Every Start brings
// up a fresh incarnation — a new 2×2 blackboard behind a delta publisher
// — so a restarted shard's heartbeat starts over, as after a node crash.
type shardServer struct {
	socket string
	clock  hostClock

	mu   sync.Mutex // guards the incarnation: Feed never races Start or Stop
	bb   *rcr.Blackboard
	srv  *rcr.Server
	done chan error
}

func (s *shardServer) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ln, err := net.Listen("unix", s.socket)
	if err != nil {
		return err
	}
	s.bb, _ = rcr.NewBlackboard(2, 2) // a fixed, valid topology
	s.srv, s.done = rcr.NewServer(s.bb, s.clock, ln), make(chan error, 1)
	s.srv.Pub = rcr.NewPublisher(s.bb)
	go func(srv *rcr.Server, done chan<- error) { done <- srv.Serve() }(s.srv, s.done)
	return nil
}

// Stop closes the incarnation and waits for Serve to return; stopping a
// stopped server is a no-op.
func (s *shardServer) Stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.srv == nil {
		return
	}
	_ = s.srv.Close()
	<-s.done
	s.bb, s.srv = nil, nil
}

// Feed runs fn on the live incarnation's board and publisher; while the
// shard is down there is nothing to feed.
func (s *shardServer) Feed(fn func(*rcr.Blackboard, *rcr.Publisher)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.srv != nil {
		fn(s.bb, s.srv.Pub)
	}
}

// TestAggregatorDriverOverSockets is the driver's smoke test — what the
// socket-backed scenario corpora used to check about Aggregator's own
// plumbing, once, on host time: four restartable rcrd shards on unix
// sockets under Run; a shard killed and restarted (lost → recovered in
// the journal, the restart detected, the stream resubscribed); a fifth
// member joined at runtime and decommissioned again (its subscription
// opened by the poll that admitted it and closed by the poll that
// retired it, while Run is still live) and its server stopped, after
// which its socket refuses a dial; cancel, and nothing leaks.
func TestAggregatorDriverOverSockets(t *testing.T) {
	leak.Check(t)
	t0 := time.Now()
	clock := hostClock(func() time.Duration { return time.Since(t0) })
	dir, reg, journal := t.TempDir(), telemetry.NewRegistry(), telemetry.NewJournal(1024, 1)
	servers := make([]*shardServer, 5)
	endpoints := make([]ShardEndpoint, len(servers))
	for i := range servers {
		servers[i] = &shardServer{socket: filepath.Join(dir, fmt.Sprintf("shard-%d.sock", i)), clock: clock}
		endpoints[i] = ShardEndpoint{ID: i, Network: "unix", Addr: servers[i].socket}
		defer servers[i].Stop()
	}
	for _, srv := range servers[:4] {
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
	}
	var streams atomic.Int64
	agg, err := NewAggregator(AggregatorConfig{
		Shards:        endpoints[:4],
		Global:        240,
		Period:        5 * time.Millisecond,
		HealthHorizon: 40 * time.Millisecond,
		Clock:         clock,
		SetCap:        func(int, units.Watts) error { return nil },
		Telemetry:     reg,
		Journal:       journal,
		Tune: func(_ int, cfg *resilience.ClientConfig) {
			cfg.Backoff = resilience.Backoff{Base: 2 * time.Millisecond, Max: 10 * time.Millisecond, Seed: 1}
			cfg.Subscribe = func(ctx context.Context, network, addr string) (resilience.SubStream, error) {
				s, err := rcr.Subscribe(ctx, network, addr)
				if err != nil {
					return nil, err
				}
				streams.Add(1)
				return countedStream{s, &streams}, nil
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- agg.Run(ctx) }()
	// Feeder: every up server's heartbeat moves each millisecond; the
	// beat count is per incarnation, so a restart runs it backwards.
	feedDone := make(chan struct{})
	go func() {
		defer close(feedDone)
		beats := make(map[*rcr.Blackboard]float64)
		for tick := time.NewTicker(time.Millisecond); ctx.Err() == nil; <-tick.C {
			for _, srv := range servers {
				srv.Feed(func(bb *rcr.Blackboard, pub *rcr.Publisher) {
					beats[bb]++
					now := clock.Now()
					bb.SetSystem(rcr.MeterHeartbeat, beats[bb], now)
					bb.SetSocket(0, rcr.MeterPower, 50, now)
					pub.Tick(now)
				})
			}
		}
	}()
	await := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(2 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("never happened: %s (status %+v, %d streams)", what, agg.Status(), streams.Load())
			}
		}
	}
	await("four shards healthy with caps", func() bool { st := agg.Status(); return st.Healthy == 4 && st.CapsSum > 0 })

	// Kill one shard, let it be lost, bring a fresh incarnation back.
	time.Sleep(20 * time.Millisecond) // let the doomed incarnation's beat climb past any successor's first
	servers[1].Stop()
	await("shard 1 lost", func() bool { return journalHas(journal, telemetry.KindShardLost) >= 1 })
	if err := servers[1].Start(); err != nil {
		t.Fatal(err)
	}
	await("shard 1 recovered, restart seen, stream resubscribed", func() bool {
		return journalHas(journal, telemetry.KindShardRecovered) >= 1 && agg.Status().ShardRestarts >= 1 &&
			reg.Counter("resilience_client_resubscribes_total").Value() >= 1
	})

	// Join a fifth member at runtime, then decommission it.
	if err := servers[4].Start(); err != nil {
		t.Fatal(err)
	}
	if err := agg.core.members.Join(endpoints[4]); err != nil {
		t.Fatal(err)
	}
	await("the joiner subscribed, heard from and activated", func() bool {
		st := agg.Status()
		return st.Shards == 5 && st.Healthy == 5 && st.Joining == 0 && streams.Load() == 5
	})
	if err := agg.core.members.Decommission(4); err != nil {
		t.Fatal(err)
	}
	await("the leaver's slot retired and its subscription closed under a live Run", func() bool {
		return agg.Status().Shards == 4 && streams.Load() == 4
	})
	// The departed member's server goes down with it, and its socket is dead.
	servers[4].Stop()
	if c, err := net.DialTimeout("unix", servers[4].socket, 50*time.Millisecond); err == nil {
		c.Close()
		t.Error("the departed member's socket still accepts after Stop")
	}

	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("Run returned %v", err)
	}
	<-feedDone
	if n := streams.Load(); n != 0 {
		t.Errorf("%d subscription streams still open after Run returned", n)
	}
}

func TestNewAggregatorValidation(t *testing.T) {
	ep := []ShardEndpoint{{ID: 0, Network: "unix", Addr: "x"}}
	clock := func() time.Duration { return 0 }
	setCap := func(int, units.Watts) error { return nil }
	cases := []struct {
		name string
		cfg  AggregatorConfig
	}{
		{"no shards", AggregatorConfig{Global: 100, Clock: clock, SetCap: setCap}},
		{"no budget", AggregatorConfig{Shards: ep, Clock: clock, SetCap: setCap}},
		{"no clock", AggregatorConfig{Shards: ep, Global: 100, SetCap: setCap}},
		{"no setcap", AggregatorConfig{Shards: ep, Global: 100, Clock: clock}},
	}
	for _, c := range cases {
		if _, err := NewAggregator(c.cfg); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

package rcr

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/resilience/leak"
	"repro/internal/telemetry"
)

// startPubServer runs a Server with an attached Publisher on a unix
// socket and tears both down at test end.
func startPubServer(t testing.TB, bb *Blackboard, clock Clock, tune func(*Server)) (*Server, *Publisher, string) {
	t.Helper()
	sock := filepath.Join(t.TempDir(), "rcrd.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(bb, clock, ln)
	srv.Pub = NewPublisher(bb)
	if tune != nil {
		tune(srv)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, srv.Pub, sock
}

// waitSubscribers spins until the publisher sees n subscribers (the SUB
// handshake crosses goroutines).
func waitSubscribers(t testing.TB, p *Publisher, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for p.Subscribers() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d subscribers attached", p.Subscribers(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSubscribeStream: the canonical flow — subscribe, receive an
// initial full frame, then deltas tick by tick, with the materialized
// state matching the board exactly. A tick with no writes must arrive as
// a heartbeat that only refreshes Now.
func TestSubscribeStream(t *testing.T) {
	leak.Check(t)
	bb, _ := NewBlackboard(2, 2)
	populate(bb, time.Second)
	clock := &fakeClock{now: time.Second}
	_, pub, sock := startPubServer(t, bb, clock, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sub, err := Subscribe(ctx, "unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	waitSubscribers(t, pub, 1)

	pub.Tick(time.Second)
	if err := sub.Next(ctx); err != nil {
		t.Fatalf("first frame: %v", err)
	}
	if !sub.State().ready {
		t.Fatal("state not ready after first frame")
	}
	if got, want := sub.Snapshot(), snapshotOf(bb, time.Second); !reflect.DeepEqual(got, want) {
		t.Fatalf("after full frame:\n got  %+v\n want %+v", got, want)
	}

	for tick := 1; tick <= 3; tick++ {
		now := time.Second + time.Duration(tick)*time.Second
		bb.SetSocket(0, MeterPower, 70+float64(tick), now)
		pub.Tick(now)
		if err := sub.Next(ctx); err != nil {
			t.Fatalf("delta %d: %v", tick, err)
		}
		if got, want := sub.Snapshot(), snapshotOf(bb, now); !reflect.DeepEqual(got, want) {
			t.Fatalf("delta %d:\n got  %+v\n want %+v", tick, got, want)
		}
	}

	verBefore := sub.State().Ver
	pub.Tick(10 * time.Second) // nothing written: heartbeat
	if err := sub.Next(ctx); err != nil {
		t.Fatalf("heartbeat: %v", err)
	}
	if sub.State().Ver != verBefore {
		t.Error("heartbeat advanced the version")
	}
	if sub.State().Now != 10*time.Second {
		t.Errorf("heartbeat Now = %v, want 10s", sub.State().Now)
	}
}

// TestSubscribeSchemaChange: registering a new meter mid-stream must
// resync subscribers with a fresh full frame instead of shipping deltas
// whose slot layout the client cannot interpret.
func TestSubscribeSchemaChange(t *testing.T) {
	leak.Check(t)
	bb, _ := NewBlackboard(1, 1)
	bb.SetSocket(0, MeterPower, 70, time.Second)
	clock := &fakeClock{now: time.Second}
	_, pub, sock := startPubServer(t, bb, clock, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sub, err := Subscribe(ctx, "unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	waitSubscribers(t, pub, 1)
	pub.Tick(time.Second)
	if err := sub.Next(ctx); err != nil {
		t.Fatal(err)
	}

	bb.SetSocket(0, "exotic-new-meter", 3.5, 2*time.Second)
	pub.Tick(2 * time.Second)
	if err := sub.Next(ctx); err != nil {
		t.Fatalf("post-schema-change frame: %v", err)
	}
	got := sub.Snapshot()
	want := snapshotOf(bb, 2*time.Second)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after schema change:\n got  %+v\n want %+v", got, want)
	}
}

// TestSlowSubscriberResync: a subscriber that stops reading while the
// board keeps ticking must get drop-oldest (never a stalled tick), then
// a resync full frame once it drains — and converge to the live state.
func TestSlowSubscriberResync(t *testing.T) {
	leak.Check(t)
	bb, _ := NewBlackboard(1, 1)
	bb.SetSocket(0, MeterPower, 70, time.Second)
	clock := &fakeClock{now: time.Second}
	reg := telemetry.NewRegistry()
	_, pub, sock := startPubServer(t, bb, clock, func(s *Server) {
		s.Pub.queueDepth = 2
		s.Pub.Instrument(reg)
	})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sub, err := Subscribe(ctx, "unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	waitSubscribers(t, pub, 1)

	// Tick without reading until the queue overflows. A sole subscriber's
	// frames go straight into the socket buffer first, so that takes as
	// many ticks as the buffer holds frames, then a few more: oldest
	// dropped, subscriber marked for resync.
	const maxTicks = 200_000
	var now time.Duration
	for i := 1; reg.Counter("rcr_sub_resyncs_total").Value() == 0; i++ {
		if i > maxTicks {
			t.Fatalf("no overflow after %d unread ticks", maxTicks)
		}
		now = time.Second + time.Duration(i)*time.Second
		bb.SetSocket(0, MeterPower, 70+float64(i), now)
		pub.Tick(now)
	}
	if reg.Counter("rcr_sub_resyncs_total").Value() == 0 {
		t.Error("no resyncs recorded despite overflow")
	}

	// Drain with the board quiescent; the stream must recover via a
	// resync full frame and converge to the live state.
	for i := 0; i < maxTicks; i++ {
		if err := sub.Next(ctx); err != nil && !errors.Is(err, ErrDeltaGap) {
			t.Fatalf("drain: %v", err)
		}
		if sub.State().ready && sub.State().Ver == bb.pub.Load() {
			break
		}
		pub.Tick(now) // resyncs any subscriber marked by the overflow
	}
	if got, want := sub.Snapshot(), snapshotOf(bb, now); !reflect.DeepEqual(got, want) {
		t.Fatalf("slow subscriber never converged:\n got  %+v\n want %+v", got, want)
	}
	if reg.Counter("rcr_sub_dropped_frames_total").Value() == 0 {
		t.Error("no dropped frames recorded despite overflow")
	}
}

// TestSubscribersSlowBesideFast: a subscriber that stops reading must
// not cost the one beside it a frame. The fast reader applies every
// tick's frame in order (one initial full frame, then only deltas) while
// the stalled one overflows its queue; once the ticks stop, the stalled
// one drains, resyncs and converges to the live state.
func TestSubscribersSlowBesideFast(t *testing.T) {
	leak.Check(t)
	bb, _ := NewBlackboard(4, 256)
	populate(bb, time.Second)
	reg := telemetry.NewRegistry()
	_, pub, sock := startPubServer(t, bb, &fakeClock{now: time.Second}, func(s *Server) {
		s.Pub.queueDepth = 2
		s.Pub.Instrument(reg)
	})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var subs [2]*Subscription
	for i := range subs {
		sub, err := Subscribe(ctx, "unix", sock)
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Close()
		subs[i] = sub
	}
	fast, stalled := subs[0], subs[1]
	waitSubscribers(t, pub, 2)

	// readFast applies the frame of tick i, the tick just taken.
	readFast := func(i int) {
		t.Helper()
		if err := fast.Next(ctx); err != nil {
			t.Fatalf("fast subscriber, tick %d: %v", i, err)
		}
		if full := IsFullFrame(fast.buf); full != (i == 1) {
			t.Fatalf("fast subscriber, tick %d: full frame = %v", i, full)
		}
		if got, want := fast.State().Ver, bb.pub.Load(); got != want {
			t.Fatalf("fast subscriber, tick %d: state at version %d, board at %d", i, got, want)
		}
	}

	// Every tick moves every core, so each delta is ≈ 8 KB and the
	// stalled subscriber's socket buffer fills within a few dozen ticks.
	const maxTicks = 10_000
	var now time.Duration
	i := 1
	for ; reg.Counter("rcr_sub_resyncs_total").Value() == 0; i++ {
		if i > maxTicks {
			t.Fatalf("no overflow after %d ticks", maxTicks)
		}
		now = time.Second + time.Duration(i)*time.Millisecond
		for c := 0; c < bb.Cores(); c++ {
			bb.SetCore(c, MeterDutyCycle, float64(i%100)/100, now)
		}
		pub.Tick(now)
		readFast(i)
	}
	if reg.Counter("rcr_sub_dropped_frames_total").Value() == 0 {
		t.Error("no dropped frames recorded despite overflow")
	}

	// The board goes quiescent and the stalled subscriber drains. Each
	// tick that resyncs it brings the fast reader a heartbeat.
	for ; ; i++ {
		if err := stalled.Next(ctx); err != nil && !errors.Is(err, ErrDeltaGap) {
			t.Fatalf("drain: %v", err)
		}
		if stalled.State().ready && stalled.State().Ver == bb.pub.Load() {
			break
		}
		if i > maxTicks {
			t.Fatalf("stalled subscriber not converged after %d ticks", maxTicks)
		}
		pub.Tick(now)
		readFast(i)
	}
	want := snapshotOf(bb, now)
	if got := stalled.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("stalled subscriber never converged:\n got  %+v\n want %+v", got, want)
	}
	if got := fast.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("fast subscriber off the live state:\n got  %+v\n want %+v", got, want)
	}
}

// soleSub returns p's only subscriber.
func soleSub(t testing.TB, p *Publisher) *subscriber {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	for s := range p.subs {
		if len(p.subs) == 1 {
			return s
		}
	}
	t.Fatalf("%d subscribers, want 1", len(p.subs))
	return nil
}

// subscribeWide attaches one subscriber to a publisher over a 4-socket
// × 256-core board whose queue holds depth frames. The subscriber's
// send buffer is under two full-board frames (≈ 17 KB each): the first
// frame is written through whole, the second in part, and the writer
// takes the rest.
func subscribeWide(t *testing.T, depth int) (*Blackboard, *Publisher, *Subscription, *telemetry.Registry) {
	t.Helper()
	bb, _ := NewBlackboard(4, 256)
	populate(bb, time.Second)
	reg := telemetry.NewRegistry()
	_, pub, sock := startPubServer(t, bb, &fakeClock{now: time.Second}, func(s *Server) {
		s.Pub.queueDepth = depth
		s.Pub.Instrument(reg)
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sub, err := Subscribe(ctx, "unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sub.Close() })
	waitSubscribers(t, pub, 1)
	if err := soleSub(t, pub).conn.(*net.UnixConn).SetWriteBuffer(16 << 10); err != nil {
		t.Fatal(err)
	}
	return bb, pub, sub, reg
}

// TestWriteThroughHandOverOrder: a sole subscriber that does not read
// while the frames outgrow its socket buffer moves from write-through,
// through a partial write, to the writer goroutine. Read back, every
// frame must apply in order, none may be dropped, and each must be
// counted exactly once.
//
// The reader starts once the writer holds the stream and reads beside
// the remaining ticks: the writer's blocked write then never outlives
// its write deadline (DefaultIPCTimeout) however slowly the host runs
// the ticks, which would detach the subscriber.
func TestWriteThroughHandOverOrder(t *testing.T) {
	leak.Check(t)
	const ticks = 200
	bb, pub, sub, reg := subscribeWide(t, ticks)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	s := soleSub(t, pub)
	read := make(chan error, 1)
	handedOver := false
	for i := 1; i <= ticks; i++ {
		now := time.Second + time.Duration(i)*time.Millisecond
		for c := 0; c < bb.Cores(); c++ {
			bb.SetCore(c, MeterDutyCycle, float64(i)/ticks, now)
		}
		pub.Tick(now)
		if handedOver {
			continue
		}
		s.mu.Lock()
		handedOver = len(s.ends) > 0 || s.busy.Load()
		s.mu.Unlock()
		if handedOver {
			go func() {
				for k := 1; k <= ticks; k++ {
					if err := sub.Next(ctx); err != nil {
						read <- fmt.Errorf("frame %d/%d: %w", k, ticks, err)
						return
					}
				}
				read <- nil
			}()
		}
	}
	if !handedOver {
		t.Fatal("every frame fit the socket buffer; the writer never took over")
	}
	if err := <-read; err != nil {
		t.Fatal(err)
	}

	frames := reg.Counter("rcr_sub_frames_total")
	if n := reg.Counter("rcr_sub_dropped_frames_total").Value(); n != 0 {
		t.Errorf("%d frames dropped with a queue as deep as the run", n)
	}
	if got, want := sub.State().Ver, bb.pub.Load(); got != want {
		t.Errorf("state at version %d, board at %d", got, want)
	}
	// The writer counts a batch after its write returns, which may be
	// after the reader has the bytes.
	deadline := time.Now().Add(5 * time.Second)
	for frames.Value() < ticks && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := frames.Value(); n != ticks {
		t.Errorf("rcr_sub_frames_total = %d, want %d", n, ticks)
	}
}

// TestWriteThroughReaderKeepsPace: a reader that drains the socket
// while ticks arrive keeps handing the stream back and forth between
// write-through and the writer. No frame may overtake one queued before
// it: every frame must apply, and none is dropped.
func TestWriteThroughReaderKeepsPace(t *testing.T) {
	leak.Check(t)
	const ticks = 500
	bb, pub, sub, reg := subscribeWide(t, ticks)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	read := make(chan error, 1)
	go func() {
		for i := 0; i < ticks; i++ {
			if err := sub.Next(ctx); err != nil {
				read <- fmt.Errorf("frame %d/%d: %w", i+1, ticks, err)
				return
			}
		}
		read <- nil
	}()
	for i := 1; i <= ticks; i++ {
		now := time.Second + time.Duration(i)*time.Millisecond
		for c := i % 4; c < bb.Cores(); c += 4 {
			bb.SetCore(c, MeterDutyCycle, float64(i%100)/100, now)
		}
		pub.Tick(now)
	}
	if err := <-read; err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("rcr_sub_dropped_frames_total").Value(); n != 0 {
		t.Errorf("%d frames dropped with a queue as deep as the run", n)
	}
	if got, want := sub.State().Ver, bb.pub.Load(); got != want {
		t.Errorf("state at version %d, board at %d", got, want)
	}
}

// TestWriteThroughPartialFrameSurvivesOverflow: the socket takes a
// frame in part and the queue overflows right behind the rest of it.
// That rest is never the frame dropped: the stream stays decodable and
// resyncs to the live state. The subscriber's writer starts only after
// the overflow, so nothing takes the queue's head in between.
func TestWriteThroughPartialFrameSurvivesOverflow(t *testing.T) {
	leak.Check(t)
	bb, _ := NewBlackboard(4, 256)
	populate(bb, time.Second)
	reg := telemetry.NewRegistry()
	pub := NewPublisher(bb)
	pub.queueDepth = 2
	pub.Instrument(reg)
	defer pub.DetachAll()

	sock := filepath.Join(t.TempDir(), "sub.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	// A send buffer smaller than two frames makes the socket split one.
	if err := conn.(*net.UnixConn).SetWriteBuffer(8 << 10); err != nil {
		t.Fatal(err)
	}
	s, err := pub.attach(conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	startWriter := sync.OnceFunc(func() { go pub.writer(s) })
	defer startWriter() // DetachAll waits for it, even after a failure

	var now time.Duration
	tick := func(i int) {
		now = time.Second + time.Duration(i)*time.Millisecond
		for c := 0; c < bb.Cores(); c++ {
			bb.SetCore(c, MeterDutyCycle, float64(i%100)/100, now)
		}
		pub.Tick(now)
	}
	i := 1
	for ; !s.begun; i++ {
		if i > 100 {
			t.Fatal("no partial write in 100 ticks")
		}
		tick(i)
	}
	// One tick queues behind the rest of the frame, the next overflows.
	tick(i)
	tick(i + 1)
	if reg.Counter("rcr_sub_resyncs_total").Value() == 0 {
		t.Fatal("the queue did not overflow")
	}
	startWriter()

	sub := &Subscription{conn: client, br: bufio.NewReaderSize(client, 16<<10)}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for j := 0; j < 100; j++ {
		if err := sub.Next(ctx); err != nil && !errors.Is(err, ErrDeltaGap) {
			t.Fatalf("drain: %v", err)
		}
		if sub.State().ready && sub.State().Ver == bb.pub.Load() {
			break
		}
		pub.Tick(now)
	}
	if got, want := sub.Snapshot(), snapshotOf(bb, now); !reflect.DeepEqual(got, want) {
		t.Fatal("subscriber never converged to the live state")
	}
}

// TestWriteThroughPeerGone: when a sole subscriber's peer has closed the
// stream, the tick's own write fails and detaches it on the spot; the
// writer then exits and the server untracks the connection.
func TestWriteThroughPeerGone(t *testing.T) {
	leak.Check(t)
	bb, _ := NewBlackboard(1, 1)
	bb.SetSocket(0, MeterPower, 70, time.Second)
	reg := telemetry.NewRegistry()
	_, pub, sock := startPubServer(t, bb, &fakeClock{now: time.Second}, func(s *Server) {
		s.Instrument(reg)
		s.Pub.Instrument(reg)
	})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sub, err := Subscribe(ctx, "unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	waitSubscribers(t, pub, 1)
	pub.Tick(time.Second)
	if err := sub.Next(ctx); err != nil {
		t.Fatal(err)
	}
	sub.Close()

	bb.SetSocket(0, MeterPower, 71, 2*time.Second)
	pub.Tick(2 * time.Second)
	if n := pub.Subscribers(); n != 0 {
		t.Errorf("%d subscribers after a tick to a closed peer, want 0", n)
	}
	if n := reg.Counter("rcr_sub_disconnects_total").Value(); n != 1 {
		t.Errorf("rcr_sub_disconnects_total = %d, want 1", n)
	}
	active := reg.Gauge("rcr_ipc_active_conns")
	deadline := time.Now().Add(5 * time.Second)
	for active.Value() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := active.Value(); n != 0 {
		t.Errorf("server still tracks %v connections", n)
	}
}

// TestWriteThroughStaleDeadline: a write deadline left on the
// connection that has since passed (the writer sets one before each
// write) must not fail a later write-through: the frame still arrives
// and the subscriber stays attached.
func TestWriteThroughStaleDeadline(t *testing.T) {
	leak.Check(t)
	bb, _ := NewBlackboard(1, 1)
	bb.SetSocket(0, MeterPower, 70, time.Second)
	reg := telemetry.NewRegistry()
	_, pub, sock := startPubServer(t, bb, &fakeClock{now: time.Second}, func(s *Server) {
		s.Pub.Instrument(reg)
	})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sub, err := Subscribe(ctx, "unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	waitSubscribers(t, pub, 1)
	pub.Tick(time.Second)
	if err := sub.Next(ctx); err != nil {
		t.Fatal(err)
	}
	if err := soleSub(t, pub).conn.SetWriteDeadline(time.Unix(1, 0)); err != nil {
		t.Fatal(err)
	}

	bb.SetSocket(0, MeterPower, 71, 2*time.Second)
	pub.Tick(2 * time.Second)
	if err := sub.Next(ctx); err != nil {
		t.Fatalf("frame after a stale deadline: %v", err)
	}
	if got, want := sub.Snapshot(), snapshotOf(bb, 2*time.Second); !reflect.DeepEqual(got, want) {
		t.Fatalf("after a stale deadline:\n got  %+v\n want %+v", got, want)
	}
	if n := pub.Subscribers(); n != 1 {
		t.Errorf("%d subscribers, want 1", n)
	}
	if n := reg.Counter("rcr_sub_disconnects_total").Value(); n != 0 {
		t.Errorf("rcr_sub_disconnects_total = %d, want 0", n)
	}
}

// TestWriteThroughTickAllocs: once warm, a tick to a sole subscriber
// whose socket takes the frame allocates nothing.
func TestWriteThroughTickAllocs(t *testing.T) {
	leak.Check(t)
	bb, _ := NewBlackboard(2, 8)
	populate(bb, time.Second)
	_, pub, sock := startPubServer(t, bb, &fakeClock{now: time.Second}, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sub, err := Subscribe(ctx, "unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	waitSubscribers(t, pub, 1)

	now := time.Second
	tickAndRead := func() {
		now += time.Millisecond
		bb.SetSocket(0, MeterPower, float64(now%7), now)
		pub.Tick(now)
		if err := sub.Next(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		tickAndRead()
	}
	// Reading each frame keeps the socket buffer from filling, so every
	// tick writes through; Next is allocation-free on its own.
	if n := testing.AllocsPerRun(1000, tickAndRead); n != 0 {
		t.Errorf("a tick and read of a sole subscriber allocate %.1f/op, want 0", n)
	}
}

// TestServerCloseDetachesSubscribers: closing the server must terminate
// subscriber streams and their writer goroutines (the leak gate is the
// real assertion).
func TestServerCloseDetachesSubscribers(t *testing.T) {
	leak.Check(t)
	bb, _ := NewBlackboard(1, 1)
	bb.SetSocket(0, MeterPower, 70, time.Second)
	clock := &fakeClock{now: time.Second}
	sock := filepath.Join(t.TempDir(), "rcrd.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(bb, clock, ln)
	srv.Pub = NewPublisher(bb)
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	subs := make([]*Subscription, 0, 4)
	for i := 0; i < 4; i++ {
		sub, err := Subscribe(ctx, "unix", sock)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}
	waitSubscribers(t, srv.Pub, 4)
	srv.Pub.Tick(time.Second)

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := srv.Pub.Subscribers(); n != 0 {
		t.Errorf("%d subscribers survive Close", n)
	}
	// Streams are dead: reads must fail once the pushed backlog is done.
	for _, sub := range subs {
		var err error
		for i := 0; i < 10 && err == nil; i++ {
			err = sub.Next(ctx)
		}
		if err == nil {
			t.Error("subscriber stream still alive after server Close")
		}
		sub.Close()
	}
}

// TestSubRejectedWithoutPublisher: a server with no Publisher must
// reject the SUB op by closing the connection.
func TestSubRejectedWithoutPublisher(t *testing.T) {
	leak.Check(t)
	bb, _ := NewBlackboard(1, 1)
	sock := filepath.Join(t.TempDir(), "rcrd.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(bb, &fakeClock{}, ln)
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	sub, err := Subscribe(ctx, "unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.Next(ctx); err == nil {
		t.Error("SUB against a publisher-less server delivered a frame")
	}
}

// BenchmarkSnapshotFanout measures fan-out throughput: subscribers × the
// ticks they actually received over real unix sockets. The acceptance
// bar is >=100k snapshots/sec across 1k subscribers; the per-tick
// publisher cost is one delta encode regardless of subscriber count.
func BenchmarkSnapshotFanout(b *testing.B) {
	for _, nSubs := range []int{16, 1000} {
		b.Run(fmt.Sprintf("subs=%d", nSubs), func(b *testing.B) {
			bb, _ := NewBlackboard(2, 8)
			populate(bb, time.Second)
			clock := &fakeClock{now: time.Second}
			_, pub, sock := startPubServer(b, bb, clock, func(s *Server) {
				s.Pub.queueDepth = 64
			})

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var delivered atomic.Int64
			readers := make(chan struct{}, nSubs)
			for i := 0; i < nSubs; i++ {
				sub, err := Subscribe(ctx, "unix", sock)
				if err != nil {
					b.Fatal(err)
				}
				go func() {
					defer func() { readers <- struct{}{} }()
					defer sub.Close()
					for {
						err := sub.Next(ctx)
						if err == nil {
							delivered.Add(1)
							continue
						}
						if errors.Is(err, ErrDeltaGap) {
							continue // server resyncs with a full frame
						}
						return
					}
				}()
			}
			waitSubscribers(b, pub, nSubs)

			b.ResetTimer()
			now := time.Second
			for i := 0; i < b.N; i++ {
				now += 10 * time.Millisecond
				bb.SetSocket(i%2, MeterPower, 70+float64(i%7), now)
				pub.Tick(now)
			}
			// Ticks outrun delivery (drop-oldest absorbs the burst), so
			// most frames land during the drain: wait until delivery
			// plateaus and report the sustained rate over the whole run.
			deadline := time.Now().Add(10 * time.Second)
			last := int64(-1)
			for time.Now().Before(deadline) {
				cur := delivered.Load()
				if cur == last {
					break
				}
				last = cur
				time.Sleep(5 * time.Millisecond)
			}
			b.StopTimer()
			elapsed := b.Elapsed().Seconds()
			if elapsed > 0 {
				b.ReportMetric(float64(delivered.Load())/elapsed, "snapshots/sec")
			}
			pub.DetachAll()
			cancel()
			for i := 0; i < nSubs; i++ {
				<-readers
			}
		})
	}
}

// BenchmarkSubObs is the push path's round trip for one subscriber: two
// meter writes, the publisher's tick, and the subscriber applying the
// frame.
func BenchmarkSubObs(b *testing.B) {
	bb, _ := NewBlackboard(2, 8)
	populate(bb, time.Second)
	_, pub, sock := startPubServer(b, bb, &fakeClock{now: time.Second}, nil)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sub, err := Subscribe(ctx, "unix", sock)
	if err != nil {
		b.Fatal(err)
	}
	defer sub.Close()
	waitSubscribers(b, pub, 1)
	pub.Tick(time.Second)
	if err := sub.Next(ctx); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	now := time.Second
	for i := 0; i < b.N; i++ {
		now += time.Millisecond
		bb.SetSocket(0, MeterPower, 70+float64(i%7), now)
		bb.SetSocket(1, MeterPower, 71+float64(i%5), now)
		pub.Tick(now)
		if err := sub.Next(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

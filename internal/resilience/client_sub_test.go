package resilience

import (
	"context"
	"errors"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/rcr"
	"repro/internal/resilience/leak"
	"repro/internal/telemetry"
)

// scriptedStream is a SubStream the test feeds frame by frame; closing
// the channel kills the stream.
type scriptedStream struct {
	frames chan rcr.Snapshot

	mu  sync.Mutex
	cur rcr.Snapshot
}

func (s *scriptedStream) push(snap rcr.Snapshot) { s.frames <- snap }

func (s *scriptedStream) Next(ctx context.Context) error {
	select {
	case snap, ok := <-s.frames:
		if !ok {
			return errors.New("stream torn down")
		}
		s.mu.Lock()
		s.cur = snap
		s.mu.Unlock()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *scriptedStream) Snapshot() rcr.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur
}

func (s *scriptedStream) Close() error { return nil }

// scriptedSubTransport hands out prepared streams in order and records
// the dial sequence.
type scriptedSubTransport struct {
	mu      sync.Mutex
	calls   []string
	streams []*scriptedStream
}

func (tr *scriptedSubTransport) subscribe(_ context.Context, _, addr string) (SubStream, error) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.calls = append(tr.calls, addr)
	if len(tr.streams) == 0 {
		return nil, errors.New("dial: connection refused")
	}
	s := tr.streams[0]
	tr.streams = tr.streams[1:]
	return s, nil
}

func (tr *scriptedSubTransport) dials() []string {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]string(nil), tr.calls...)
}

// waitLatest polls Latest until the cached snapshot reaches want.
func waitLatest(t *testing.T, c *Client, want time.Duration) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if snap, err := c.Latest(); err == nil && snap.Now == want {
			return
		}
		if time.Now().After(deadline) {
			snap, err := c.Latest()
			t.Fatalf("Latest never reached Now=%v (last: %+v, %v)", want, snap, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClientSubscribeFeedsCache: pushed frames land in the
// last-known-good cache, Latest serves them without touching the
// network, and cancellation ends the loop.
func TestClientSubscribeFeedsCache(t *testing.T) {
	leak.Check(t)
	clk := &fakeClock{at: 50 * time.Millisecond}
	stream := &scriptedStream{frames: make(chan rcr.Snapshot)}
	tr := &scriptedSubTransport{streams: []*scriptedStream{stream}}
	c, reg, _ := newTestClient(t, clk, &scriptedTransport{now: clk.now}, func(cfg *ClientConfig) {
		cfg.Subscribe = tr.subscribe
	})

	if _, err := c.Latest(); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("Latest before any frame: %v, want ErrNoSnapshot", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- c.Subscribe(ctx) }()

	for i := 1; i <= 3; i++ {
		stream.push(rcr.Snapshot{Now: time.Duration(i) * 10 * time.Millisecond})
	}
	waitLatest(t, c, 30*time.Millisecond)

	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Errorf("Subscribe returned %v, want context.Canceled", err)
	}
	if n := reg.Counter("resilience_client_sub_frames_total").Value(); n != 3 {
		t.Errorf("sub_frames = %d, want 3", n)
	}
	if n := reg.Counter("resilience_client_resubscribes_total").Value(); n != 0 {
		t.Errorf("resubscribes = %d, want 0", n)
	}
	if d := tr.dials(); len(d) != 1 || d[0] != "primary" {
		t.Errorf("dial sequence %v", d)
	}
}

// TestClientSubscribeResubscribes: a dying stream is journaled as
// sub_lost, replaced via failover to the replica, and the first frame of
// the replacement is journaled as sub_resumed. The cache keeps serving
// within the horizon across the outage.
func TestClientSubscribeResubscribes(t *testing.T) {
	leak.Check(t)
	clk := &fakeClock{at: 50 * time.Millisecond}
	first := &scriptedStream{frames: make(chan rcr.Snapshot)}
	second := &scriptedStream{frames: make(chan rcr.Snapshot)}
	tr := &scriptedSubTransport{streams: []*scriptedStream{first, second}}
	c, reg, j := newTestClient(t, clk, &scriptedTransport{now: clk.now}, func(cfg *ClientConfig) {
		cfg.Subscribe = tr.subscribe
	})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- c.Subscribe(ctx) }()

	first.push(rcr.Snapshot{Now: 10 * time.Millisecond})
	waitLatest(t, c, 10*time.Millisecond)
	close(first.frames) // stream dies

	second.push(rcr.Snapshot{Now: 20 * time.Millisecond})
	waitLatest(t, c, 20*time.Millisecond)

	// The outage never emptied the cache: Latest still served.
	if _, err := c.Latest(); err != nil {
		t.Errorf("Latest after recovery: %v", err)
	}

	cancel()
	<-done

	if n := reg.Counter("resilience_client_resubscribes_total").Value(); n != 1 {
		t.Errorf("resubscribes = %d, want 1", n)
	}
	var kinds []string
	for _, d := range j.Entries() {
		if d.Kind == telemetry.KindSubLost || d.Kind == telemetry.KindSubResumed {
			kinds = append(kinds, d.Kind)
		}
	}
	if len(kinds) != 2 || kinds[0] != telemetry.KindSubLost || kinds[1] != telemetry.KindSubResumed {
		t.Errorf("journal sub kinds = %v, want [sub_lost sub_resumed]", kinds)
	}
	// Failover: the replacement stream came from the replica.
	d := tr.dials()
	if len(d) != 2 || d[0] != "primary" || d[1] != "replica" {
		t.Errorf("dial sequence %v", d)
	}
}

// TestClientSubscribeBackoffHonorsCancel: a cancel during the backoff
// wait between resubscribe attempts ends Subscribe at once, not after
// the delay — a decommissioned member's follower, or a cancelled
// aggregator Run, drains while its shard is down.
func TestClientSubscribeBackoffHonorsCancel(t *testing.T) {
	leak.Check(t)
	clk := &fakeClock{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	refused := make(chan struct{}, 1)
	c, _, _ := newTestClient(t, clk, &scriptedTransport{now: clk.now}, func(cfg *ClientConfig) {
		cfg.Addrs = []string{"primary"}
		cfg.Backoff = Backoff{Base: time.Second}
		cfg.Sleep = nil // select the default wait
		cfg.Subscribe = func(context.Context, string, string) (SubStream, error) {
			select {
			case refused <- struct{}{}:
			default:
			}
			return nil, errors.New("dial: connection refused")
		}
	})
	done := make(chan error, 1)
	go func() { done <- c.Subscribe(ctx) }()
	<-refused
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Subscribe returned %v, want context.Canceled", err)
		}
		if waited := time.Since(start); waited > 250*time.Millisecond {
			t.Errorf("Subscribe returned %v after the cancel; the backoff wait is at least 500 ms", waited)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Subscribe never returned after the cancel")
	}
}

// rcrClock adapts the package's fakeClock to the rcr.Clock interface.
type rcrClock struct{ c *fakeClock }

func (r rcrClock) Now() time.Duration { return r.c.now() }

// TestClientSubscribeRealTransport exercises the default seam —
// rcr.Subscribe against a live server with an attached publisher — so
// the adapter wiring is covered, not just the scripted fakes.
func TestClientSubscribeRealTransport(t *testing.T) {
	leak.Check(t)
	bb, err := rcr.NewBlackboard(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	clk := &fakeClock{at: time.Second}
	sock := filepath.Join(t.TempDir(), "rcrd.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	srv := rcr.NewServer(bb, rcrClock{clk}, ln)
	srv.Pub = rcr.NewPublisher(bb)
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
		if err := <-serveDone; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})

	c, _, _ := newTestClient(t, clk, &scriptedTransport{now: clk.now}, func(cfg *ClientConfig) {
		cfg.Addrs = []string{sock}
		cfg.Subscribe = nil // select the rcr.Subscribe default
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- c.Subscribe(ctx) }()

	bb.SetSocket(0, rcr.MeterPower, 72.5, time.Second)
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv.Pub.Tick(clk.now())
		snap, err := c.Latest()
		got := false
		if err == nil && len(snap.Sockets) == 1 {
			for _, m := range snap.Sockets[0].Meters {
				if m.Name == rcr.MeterPower && m.Value == 72.5 {
					got = true
				}
			}
		}
		if got {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pushed meter never reached the cache (last: %v)", err)
		}
		time.Sleep(time.Millisecond)
	}

	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Errorf("Subscribe returned %v, want context.Canceled", err)
	}
}

// gapStream is a SubStream whose script can interleave applied frames
// with ErrDeltaGap returns — the shape of a live stream riding a shard
// restart: deltas dropped while the shard's sampler was down surface as
// gaps, then the server's full-frame resync lands and the stream goes on.
type gapStream struct {
	events chan gapEvent

	mu  sync.Mutex
	cur rcr.Snapshot
}

type gapEvent struct {
	snap rcr.Snapshot
	err  error
}

func (s *gapStream) Next(ctx context.Context) error {
	select {
	case ev, ok := <-s.events:
		if !ok {
			return errors.New("stream torn down")
		}
		if ev.err != nil {
			return ev.err
		}
		s.mu.Lock()
		s.cur = ev.snap
		s.mu.Unlock()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *gapStream) Snapshot() rcr.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur
}

func (s *gapStream) Close() error { return nil }

// TestClientSubscribeGapResync is the shard-restart gap regression: a
// delta gap inside a live stream must produce exactly one journaled
// resync episode per gap (however many gapped frames arrive), the cache
// must hold the pre-gap state until the resync full frame lands — never
// a merge of gapped deltas — and the stream must NOT be torn down
// (no sub_lost, no resubscribe).
func TestClientSubscribeGapResync(t *testing.T) {
	leak.Check(t)
	clk := &fakeClock{at: 50 * time.Millisecond}
	stream := &gapStream{events: make(chan gapEvent)}
	c, reg, j := newTestClient(t, clk, &scriptedTransport{now: clk.now}, func(cfg *ClientConfig) {
		cfg.Subscribe = func(_ context.Context, _, _ string) (SubStream, error) { return stream, nil }
	})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- c.Subscribe(ctx) }()

	// Healthy stream: the initial full frame feeds the cache.
	stream.events <- gapEvent{snap: rcr.Snapshot{Now: 10 * time.Millisecond}}
	waitLatest(t, c, 10*time.Millisecond)

	// The shard restarts: three queued deltas no longer connect. One
	// episode — and the cache must still serve the pre-gap state, not a
	// partial merge of frames the stream could not apply.
	for i := 0; i < 3; i++ {
		stream.events <- gapEvent{err: rcr.ErrDeltaGap}
	}
	if snap, err := c.Latest(); err != nil || snap.Now != 10*time.Millisecond {
		t.Fatalf("mid-gap Latest = (%v, %v), want the pre-gap snapshot", snap.Now, err)
	}

	// The server's resync full frame closes the episode.
	stream.events <- gapEvent{snap: rcr.Snapshot{Now: 30 * time.Millisecond}}
	waitLatest(t, c, 30*time.Millisecond)

	// A second, separate gap episode later in the stream's life.
	stream.events <- gapEvent{err: rcr.ErrDeltaGap}
	stream.events <- gapEvent{snap: rcr.Snapshot{Now: 40 * time.Millisecond}}
	waitLatest(t, c, 40*time.Millisecond)

	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Errorf("Subscribe returned %v, want context.Canceled", err)
	}

	if n := reg.Counter("resilience_client_gap_resyncs_total").Value(); n != 2 {
		t.Errorf("gap_resyncs = %d, want 2 (one per episode, not per gapped frame)", n)
	}
	var gaps, lost, resumed int
	for _, d := range j.Entries() {
		switch d.Kind {
		case telemetry.KindSubGapResync:
			gaps++
		case telemetry.KindSubLost:
			lost++
		case telemetry.KindSubResumed:
			resumed++
		}
	}
	if gaps != 2 {
		t.Errorf("journal has %d sub_gap_resync records, want 2", gaps)
	}
	if lost != 0 || resumed != 0 {
		t.Errorf("gap episodes journaled as stream loss (lost=%d resumed=%d); a gap must ride the live stream", lost, resumed)
	}
	if n := reg.Counter("resilience_client_resubscribes_total").Value(); n != 0 {
		t.Errorf("resubscribes = %d, want 0: a delta gap must not tear the stream down", n)
	}
}

// TestClientSubscribeBackToBackFailovers rides two ServerRestart windows
// with no clean frames between them: the first restart gaps the primary's
// stream and then tears it down mid-episode; the failover stream lands on
// a replica whose own restart window is already open, so it gaps
// immediately after the handshake before its resync frame arrives. Each
// restart must cost exactly one sub_gap_resync episode — not one per
// gapped frame, and not zero because a teardown interrupted the first
// episode — the outage must journal as exactly one lost/resumed pair,
// and the cache must serve the pre-gap state throughout.
func TestClientSubscribeBackToBackFailovers(t *testing.T) {
	leak.Check(t)
	clk := &fakeClock{at: 50 * time.Millisecond}
	primary := &gapStream{events: make(chan gapEvent)}
	replica := &gapStream{events: make(chan gapEvent)}
	var (
		dialMu  sync.Mutex
		dialed  []string
		streams = []SubStream{primary, replica}
	)
	c, reg, j := newTestClient(t, clk, &scriptedTransport{now: clk.now}, func(cfg *ClientConfig) {
		cfg.Subscribe = func(_ context.Context, _, addr string) (SubStream, error) {
			dialMu.Lock()
			defer dialMu.Unlock()
			dialed = append(dialed, addr)
			if len(streams) == 0 {
				return nil, errors.New("dial: connection refused")
			}
			s := streams[0]
			streams = streams[1:]
			return s, nil
		}
	})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- c.Subscribe(ctx) }()

	// Healthy primary feeds the cache.
	primary.events <- gapEvent{snap: rcr.Snapshot{Now: 10 * time.Millisecond}}
	waitLatest(t, c, 10*time.Millisecond)

	// Restart window 1: the primary's queued deltas stop connecting (one
	// episode however many gapped frames arrive), then the dying server
	// tears the stream down before any resync frame can land.
	primary.events <- gapEvent{err: rcr.ErrDeltaGap}
	primary.events <- gapEvent{err: rcr.ErrDeltaGap}
	if snap, err := c.Latest(); err != nil || snap.Now != 10*time.Millisecond {
		t.Fatalf("mid-gap Latest = (%v, %v), want the pre-gap snapshot", snap.Now, err)
	}
	close(primary.events)

	// Restart window 2 is already open on the failover target: the
	// replica's stream gaps straight after the handshake — no clean frame
	// separates the two windows — until its resync full frame closes the
	// second episode.
	replica.events <- gapEvent{err: rcr.ErrDeltaGap}
	if snap, err := c.Latest(); err != nil || snap.Now != 10*time.Millisecond {
		t.Fatalf("Latest during second window = (%v, %v), want the pre-gap snapshot", snap.Now, err)
	}
	replica.events <- gapEvent{snap: rcr.Snapshot{Now: 30 * time.Millisecond}}
	waitLatest(t, c, 30*time.Millisecond)

	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Errorf("Subscribe returned %v, want context.Canceled", err)
	}

	if n := reg.Counter("resilience_client_gap_resyncs_total").Value(); n != 2 {
		t.Errorf("gap_resyncs = %d, want 2 (exactly one episode per restart)", n)
	}
	if n := reg.Counter("resilience_client_resubscribes_total").Value(); n != 1 {
		t.Errorf("resubscribes = %d, want 1 (one failover for the torn-down primary)", n)
	}
	var gaps, lost, resumed int
	for _, d := range j.Entries() {
		switch d.Kind {
		case telemetry.KindSubGapResync:
			gaps++
		case telemetry.KindSubLost:
			lost++
		case telemetry.KindSubResumed:
			resumed++
		}
	}
	if gaps != 2 {
		t.Errorf("journal has %d sub_gap_resync records, want 2", gaps)
	}
	if lost != 1 || resumed != 1 {
		t.Errorf("outage journaled as lost=%d resumed=%d, want exactly one pair across the back-to-back windows", lost, resumed)
	}
	dialMu.Lock()
	d := append([]string(nil), dialed...)
	dialMu.Unlock()
	if len(d) != 2 || d[0] != "primary" || d[1] != "replica" {
		t.Errorf("dial sequence %v, want [primary replica]", d)
	}
}

package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/rcr"
	"repro/internal/resilience"
	"repro/internal/telemetry"
)

// syncTimeout bounds every wait on the program reaching a state the
// bench asked for (a subscriber attached, a frame applied). Hitting it
// is a failed operation, never a silent hang.
const syncTimeout = 10 * time.Second

// ipcTimeout bounds one request/response exchange.
const ipcTimeout = 5 * time.Second

// clockFunc adapts a function to rcr.Clock.
type clockFunc func() time.Duration

func (f clockFunc) Now() time.Duration { return f() }

// pollUntil waits for a state of the program that raises no event the
// bench could block on (a server-side attach, a counter catching up). It
// naps between looks rather than spinning: a spinning driver keeps its P
// busy, and the runtime then leaves the network poller — which is what
// would make the state come about — to its 10 ms background check.
func pollUntil(cond func() bool) bool {
	deadline := time.Now().Add(syncTimeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(20 * time.Microsecond)
	}
	return true
}

// delivery tracks, per fleet, the frames the bench has had publishers
// push and the frames the aggregators' clients have applied. The
// cluster scenarios run the program's goroutines in lockstep with the
// driver — it blocks until a round's frames are in — so rounds, and with
// them every count the bench reports, repeat exactly for a seed.
type delivery struct {
	mu       sync.Mutex
	cond     *sync.Cond
	timedOut bool
}

func newDelivery() *delivery {
	d := &delivery{}
	d.cond = sync.NewCond(&d.mu)
	return d
}

// shard is one synthetic socket shard of the cluster scenarios: a
// blackboard behind a real rcr.Server on a unix socket, a publisher the
// bench ticks, and (HA fleets) the node's fence guard, which outlives
// server incarnations the way a daemon's persisted fence does.
type shard struct {
	id    int
	addr  string
	clock func() time.Duration
	reg   *telemetry.Registry
	guard *rcr.FenceGuard

	bb       *rcr.Blackboard
	srv      *rcr.Server
	pub      *rcr.Publisher
	serveErr chan error
	beat     float64

	// Frames the bench has had the publisher send to aggregator streams,
	// and frames those streams have applied to their client's cache; both
	// guarded by dlv.mu.
	dlv     *delivery
	sent    int64
	applied int64
}

func (s *shard) up() bool { return s.srv != nil }

// start brings up a fresh incarnation: new blackboard, server and
// publisher on the shard's socket.
func (s *shard) start() error {
	if err := os.Remove(s.addr); err != nil && !os.IsNotExist(err) {
		return err
	}
	ln, err := net.Listen("unix", s.addr)
	if err != nil {
		return err
	}
	bb, err := rcr.NewBlackboard(2, 2)
	if err != nil {
		ln.Close()
		return err
	}
	srv := rcr.NewServer(bb, clockFunc(s.clock), ln)
	srv.MaxConns = 8
	srv.Pub = rcr.NewPublisher(bb)
	srv.Pub.Instrument(s.reg)
	srv.Instrument(s.reg)
	if s.guard != nil {
		s.guard.Bind(bb)
		srv.Fence = s.guard
	}
	s.bb, s.srv, s.pub, s.beat = bb, srv, srv.Pub, 0
	s.serveErr = make(chan error, 1)
	go func(ch chan error) { ch <- srv.Serve() }(s.serveErr)
	return nil
}

// stop closes the server and waits for Serve to return.
func (s *shard) stop() error {
	if s.srv == nil {
		return nil
	}
	err := s.srv.Close()
	if serr := <-s.serveErr; err == nil {
		err = serr
	}
	s.srv, s.pub, s.bb = nil, nil, nil
	return err
}

// feed writes one sample tick (heartbeat, per-socket power and memory
// concurrency) and has the publisher push it to every attached stream.
func (s *shard) feed(power, conc float64) {
	now := s.clock()
	s.beat++
	s.bb.SetSystem(rcr.MeterHeartbeat, s.beat, now)
	for d := 0; d < s.bb.Sockets(); d++ {
		s.bb.SetSocket(d, rcr.MeterPower, power/float64(s.bb.Sockets()), now)
		s.bb.SetSocket(d, rcr.MeterMemConcurrency, conc, now)
	}
	s.tick(s.pub.Subscribers())
}

// tick pushes one frame generation; live is how many of the attached
// streams still have a reader that will apply it.
func (s *shard) tick(live int) {
	s.pub.Tick(s.clock())
	s.dlv.mu.Lock()
	s.sent += int64(live)
	s.dlv.mu.Unlock()
}

// lockstepStream wraps an aggregator's subscription stream so the bench
// can tell when a pushed frame has reached the client's cache: the
// client stores a frame after Next returns and before it calls Next
// again, so entering Next with a frame outstanding proves the store.
type lockstepStream struct {
	resilience.SubStream
	shard       *shard
	outstanding bool
}

func (s *lockstepStream) Next(ctx context.Context) error {
	if s.outstanding {
		d := s.shard.dlv
		d.mu.Lock()
		s.shard.applied++
		d.cond.Signal()
		d.mu.Unlock()
	}
	err := s.SubStream.Next(ctx)
	s.outstanding = err == nil
	return err
}

// tuneClient points a shard client at the lockstep stream and shortens
// its reconnect backoff: a stream is lost here only when the bench
// stops a shard on purpose, and the default 10 ms sleeps would only
// stretch the leader-kill step.
func tuneClient(shards []*shard) func(int, *resilience.ClientConfig) {
	return func(id int, ccfg *resilience.ClientConfig) {
		ccfg.Backoff = resilience.Backoff{Base: time.Millisecond, Max: 8 * time.Millisecond}
		ccfg.Subscribe = func(ctx context.Context, network, addr string) (resilience.SubStream, error) {
			st, err := rcr.Subscribe(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return &lockstepStream{SubStream: st, shard: shards[id]}, nil
		}
	}
}

// awaitSubscribers waits until every running shard has exactly want
// streams attached.
func awaitSubscribers(shards []*shard, want int) error {
	for _, s := range shards {
		if !s.up() {
			continue
		}
		if !pollUntil(func() bool { return s.pub.Subscribers() == want }) {
			return fmt.Errorf("shard %d: %d subscribers attached, want %d", s.id, s.pub.Subscribers(), want)
		}
	}
	return nil
}

// awaitDelivery blocks until every running shard's pushed frames have
// been applied by the aggregators' clients. The shards share one
// delivery.
func awaitDelivery(shards []*shard) error {
	d := shards[0].dlv
	watchdog := time.AfterFunc(syncTimeout, func() {
		d.mu.Lock()
		d.timedOut = true
		d.cond.Broadcast()
		d.mu.Unlock()
	})
	defer watchdog.Stop()
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, s := range shards {
		for s.up() && s.applied < s.sent {
			if d.timedOut {
				return fmt.Errorf("shard %d: %d of %d pushed frames applied", s.id, s.applied, s.sent)
			}
			d.cond.Wait()
		}
	}
	return nil
}

// newSockDir makes a fresh directory for one fixture's unix sockets
// under base. The path is kept relative and short: sun_path holds 108
// bytes.
func newSockDir(base string) (string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "s")
}

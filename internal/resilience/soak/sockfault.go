package soak

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/rcr"
	"repro/internal/telemetry"
)

// Socket-fault primitives shared by every host-time soak in the tree:
// this package's single-daemon soak and the cluster scenario runner
// (internal/cluster), which runs one Server per shard.

// HostClock measures host time from a run's start. It serves as the
// rcr.Clock of every server in a run and as the clients' time base, so
// server timestamps, staleness checks and fault windows share one
// timeline.
type HostClock struct{ t0 time.Time }

// NewHostClock starts a run's timeline now.
func NewHostClock() *HostClock { return &HostClock{t0: time.Now()} }

// Now returns the host time elapsed since the run began.
func (c *HostClock) Now() time.Duration { return time.Since(c.t0) }

// ActiveFunc reports the service-fault kinds active against one server
// at elapsed time now: faults.ServiceSchedule.Active, or a
// faults.FleetSchedule.ActiveOn bound to one shard.
type ActiveFunc func(now time.Duration) []faults.ServiceKind

func (f ActiveFunc) has(now time.Duration, kind faults.ServiceKind) bool {
	if f == nil {
		return false
	}
	for _, k := range f(now) {
		if k == kind {
			return true
		}
	}
	return false
}

// Server is a restartable rcrd server on a unix socket with a delta
// publisher: the process a soak kills, restarts, resets and
// slow-lorises. Set the exported fields before the first Start.
type Server struct {
	Socket string
	Clock  *HostClock
	Reg    *telemetry.Registry
	// Active, when non-nil, scopes ConnReset windows to this server.
	Active ActiveFunc
	// Board, when non-nil, is the blackboard every incarnation serves —
	// a daemon whose sampler outlives it. When nil every Start builds a
	// fresh 2×2 board, so a restarted incarnation's heartbeat restarts
	// from zero: what a whole-node crash looks like to an aggregator.
	Board *rcr.Blackboard
	// Fence, when non-nil, is the node's fencing authority. It lives
	// outside the restartable incarnation because a real node's
	// controller-side fence ratchet survives daemon restarts: a new
	// incarnation must not grant a stale fence its dead predecessor
	// already refused. Start re-binds it to each incarnation's board.
	Fence *rcr.FenceGuard

	resets uint64 // connections accepted inside a ConnReset window

	// life serializes Start and Stop end to end, so a Stop racing a Start
	// stops the incarnation that Start brings up instead of missing it.
	// mu guards the fields below and is never held across socket work.
	life     sync.Mutex
	mu       sync.Mutex
	bb       *rcr.Blackboard
	srv      *rcr.Server
	serveErr chan error
}

// Start brings a fresh incarnation up on the socket. Starting a server
// that is already up is a no-op: two drivers powering the same node on
// (a delayed join racing a re-join) must not orphan the first
// incarnation behind the second.
func (s *Server) Start() error {
	s.life.Lock()
	defer s.life.Unlock()
	if s.Up() {
		return nil
	}
	if err := os.Remove(s.Socket); err != nil && !os.IsNotExist(err) {
		return err
	}
	ln, err := net.Listen("unix", s.Socket)
	if err != nil {
		return err
	}
	bb := s.Board
	if bb == nil {
		if bb, err = rcr.NewBlackboard(2, 2); err != nil {
			ln.Close()
			return err
		}
	}
	srv := rcr.NewServer(bb, s.Clock, &resetListener{Listener: ln, srv: s})
	srv.MaxConns = 8
	srv.AcceptQueue = 16
	srv.Shed = true
	srv.DrainTimeout = 50 * time.Millisecond
	srv.ReadTimeout = 100 * time.Millisecond
	srv.WriteTimeout = 100 * time.Millisecond
	srv.Pub = rcr.NewPublisher(bb)
	srv.Pub.Instrument(s.Reg)
	srv.Instrument(s.Reg)
	if s.Fence != nil {
		s.Fence.Bind(bb)
		srv.Fence = s.Fence
	}
	ch := make(chan error, 1)
	go func() { ch <- srv.Serve() }()
	s.mu.Lock()
	s.bb, s.srv, s.serveErr = bb, srv, ch
	s.mu.Unlock()
	return nil
}

// Stop closes the current incarnation and waits for Serve to return.
// Stopping a stopped server is a no-op.
func (s *Server) Stop() {
	s.life.Lock()
	defer s.life.Unlock()
	s.mu.Lock()
	srv, ch := s.srv, s.serveErr
	s.bb, s.srv, s.serveErr = nil, nil, nil
	s.mu.Unlock()
	if srv == nil {
		return
	}
	_ = srv.Close()
	<-ch
}

// Up reports whether an incarnation is currently serving.
func (s *Server) Up() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.srv != nil
}

// Resets returns how many connections ConnReset windows have aborted.
func (s *Server) Resets() uint64 { return atomic.LoadUint64(&s.resets) }

// Feed runs fn against the current incarnation's blackboard and
// publisher, holding off Start/Stop meanwhile; during a restart window
// there is nothing to feed and fn is not called.
func (s *Server) Feed(fn func(bb *rcr.Blackboard, pub *rcr.Publisher)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.srv != nil {
		fn(s.bb, s.srv.Pub)
	}
}

// RunRestarts executes the ServerRestart windows among events in start
// order — the server dies at each window's start and a fresh
// incarnation comes back at its end — and returns how many kill/restart
// cycles it performed.
func (s *Server) RunRestarts(events []faults.ServiceEvent, budget time.Duration) (restarts uint64) {
	var wins []faults.ServiceEvent
	for _, ev := range events {
		if ev.Kind == faults.ServerRestart {
			wins = append(wins, ev)
		}
	}
	sort.Slice(wins, func(i, j int) bool { return wins[i].Start < wins[j].Start })
	for _, w := range wins {
		if d := w.Start - s.Clock.Now(); d > 0 {
			time.Sleep(d)
		}
		if s.Clock.Now() >= budget {
			return restarts
		}
		s.Stop()
		if d := w.End - s.Clock.Now(); d > 0 {
			time.Sleep(d)
		}
		if err := s.Start(); err != nil {
			// The old socket path can linger briefly; one retry covers it.
			time.Sleep(5 * time.Millisecond)
			if err := s.Start(); err != nil {
				return restarts
			}
		}
		restarts++
	}
	return restarts
}

// resetListener wraps Accept to inject ConnReset windows: connections
// accepted inside one get a wrapper whose writes abort, the
// server-side view of a peer resetting mid-exchange.
type resetListener struct {
	net.Listener
	srv *Server
}

func (l *resetListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	if l.srv.Active.has(l.srv.Clock.Now(), faults.ConnReset) {
		atomic.AddUint64(&l.srv.resets, 1)
		return &resetConn{Conn: c}, nil
	}
	return c, nil
}

// resetConn fails every write as if the peer reset the connection.
type resetConn struct{ net.Conn }

func (c *resetConn) Write([]byte) (int, error) {
	c.Conn.Close()
	return 0, fmt.Errorf("write: connection reset by peer (injected)")
}

// RunLoris dials slow-loris connections against servers inside their
// SlowLoris windows until budget: each trickles one byte of a request
// then holds the connection (at most perServer at once), so only the
// server's read deadlines free the occupied workers. It returns how
// many connections it attached.
func RunLoris(clock *HostClock, servers []*Server, perServer int, budget time.Duration) (attached uint64) {
	conns := make([][]net.Conn, len(servers))
	defer func() {
		for _, cs := range conns {
			for _, c := range cs {
				c.Close()
			}
		}
	}()
	for clock.Now() < budget {
		now := clock.Now()
		for i, s := range servers {
			active := s.Active.has(now, faults.SlowLoris)
			if active && len(conns[i]) < perServer {
				if c, err := net.DialTimeout("unix", s.Socket, 20*time.Millisecond); err == nil {
					conns[i] = append(conns[i], c)
					attached++
					_, _ = c.Write([]byte("G")) // one byte, then silence
				}
			}
			if !active && len(conns[i]) > 0 {
				for _, c := range conns[i] {
					c.Close()
				}
				conns[i] = conns[i][:0]
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return attached
}

// ResourceAudit brackets a run that owns the process with a goroutine
// count and a post-GC heap reading. runtime.NumGoroutine is
// process-global, so runs executing concurrently (a corpus fan-out)
// must skip it and let the caller gate leaks once at the end; a nil
// *ResourceAudit is that skip and reports zero growth.
type ResourceAudit struct {
	goroutines int
	heap       uint64
}

// BeginResourceAudit takes the before-run reading.
func BeginResourceAudit() *ResourceAudit {
	a := &ResourceAudit{goroutines: runtime.NumGoroutine()}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	a.heap = ms.HeapAlloc
	return a
}

// Finish waits up to 2 s for teardown goroutines to drain and returns
// the goroutine and HeapAlloc growth across the run.
func (a *ResourceAudit) Finish() (goroutines int, heapBytes int64) {
	if a == nil {
		return 0, 0
	}
	deadline := time.Now().Add(2 * time.Second)
	goroutines = runtime.NumGoroutine() - a.goroutines
	for goroutines > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		goroutines = runtime.NumGoroutine() - a.goroutines
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return goroutines, int64(ms.HeapAlloc) - int64(a.heap)
}

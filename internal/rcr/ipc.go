package rcr

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/telemetry"
)

// The IPC protocol stands in for the real RCRdaemon's shared-memory
// region: a client connects to a Unix socket, sends a one-line request,
// and receives a length-prefixed binary payload.
//
//	request:  "GET\n"  response: uint32 little-endian length, then AppendSnapshot bytes
//	request:  "MET\n"  response: uint32 little-endian length, then metrics text
//	                   (telemetry.Registry.WriteText form; empty when the
//	                   server is not instrumented)
//	request:  "SUB\n"  response: a stream of uint32-length-prefixed frames
//	                   pushed on every sampler tick — a full frame
//	                   ("RCRF") first, then delta frames ("RCRD"); see
//	                   delta.go for the wire format and pubsub.go for the
//	                   fan-out. Requires Server.Pub; rejected otherwise.
//	request:  "MEM\n"  then a uint32-length-prefixed MEMW payload
//	                   (memcap.go): a fenced cap write, lease renewal or
//	                   membership commit. Response: a uint32-length-
//	                   prefixed MEMA ack. Requires Server.Fence;
//	                   rejected otherwise.
//
// An overloaded server may answer any request with the 4-byte BUSY
// header (0xFFFFFFFF) and close the connection — a cheap load-shed
// response that costs the server one write and tells the client to back
// off instead of letting it hang in the listener backlog. Clients map it
// to ErrBusy; pre-BUSY clients reject it as an implausible length, which
// still fails fast.
//
// Connection reuse. GET, MET and MEM may follow one another on one
// connection, each request with its own counters and size bounds. The
// server arms two deadlines per request, each one SetDeadline: when the
// connection parks (and before the first request), the read timeout
// (DefaultIPCTimeout) for the wait and the whole request read; once the request is read,
// DefaultIPCTimeout for the response write. The client arms none: the
// exchange's context reaches the connection only through one AfterFunc
// that expires it, so a parked connection carries no timer. The server
// closes on any malformed, refused or failed request, after BUSY, when
// the wait runs out, at Close, and when every worker is taken and a new
// connection needs one (an idle peer is shed before anyone gets BUSY).
// The client (exchange) closes on any error, on a response outside its
// bounds and when its context fired; otherwise it parks the connection
// in a small idle set for the next exchange to that endpoint. A client
// that closes after its one answer is not an error.
//
// Framing. The server reads requests through a per-connection buffered
// reader, so a request written in one write costs it one read whatever
// its fields. The client reads a response in one read when it fits the
// connection's buffer (ipcReadBuf). Bytes past a response are a
// protocol error and the connection is closed: by the client after any
// response, by the server after SUB, whose connection the publisher
// takes bare.
//
// Never resend. A fenced write replayed with the same (fence, seq) is
// refused as a stale seq, so the client must not write a request twice.
// A parked connection is therefore proven live before the first byte is
// written — a non-blocking read through the RawConn taken at dial must
// find nothing to read; EOF, stray bytes or an error discard it and a
// fresh one is dialed — and once the request is written any failure is
// returned to the caller as the transport error it is.

// maxSnapshotBytes bounds the response size a client will accept.
const maxSnapshotBytes = 16 << 20

// busyHeader is the length-field sentinel of a load-shed response. It is
// deliberately far above maxSnapshotBytes so no real payload can collide
// with it.
const busyHeader = ^uint32(0)

// ErrBusy reports a request shed by an overloaded server (the BUSY
// response). It is transient: the client should back off and retry.
var ErrBusy = errors.New("rcr: server busy (load shed)")

// Defaults for the server's per-connection protections. The protocol is
// a single tiny request and one bounded response, so anything slower
// than these is a stalled or hostile peer, not a slow link.
const (
	DefaultIPCTimeout  = 2 * time.Second
	DefaultMaxConns    = 64
	DefaultAcceptQueue = 128
)

// DefaultQueryTimeout bounds Query's whole dial/request/response
// exchange when the caller supplies no context.
const DefaultQueryTimeout = 5 * time.Second

// Accept-loop backoff bounds: transient Accept errors (EMFILE, ENFILE,
// ECONNABORTED, timeouts) back off exponentially between these instead
// of killing Serve.
const (
	acceptBackoffMin = time.Millisecond
	acceptBackoffMax = time.Second
)

// Server serves blackboard snapshots over a listener. Configure the
// exported fields (if desired) and Instrument before calling Serve.
type Server struct {
	bb    *Blackboard
	clock Clock
	ln    net.Listener

	// readTimeout bounds the wait for and the read of each request, and
	// DefaultIPCTimeout its response write. Zero, as every program
	// leaves it, selects DefaultIPCTimeout; a stalled or malicious client
	// can hold a handler (and one connection slot) no longer than their
	// sum. Tests shorten it.
	readTimeout time.Duration
	// MaxConns caps concurrently served connections (the handler worker
	// pool size). Zero selects DefaultMaxConns.
	MaxConns int
	// acceptQueue bounds how many accepted connections may wait for a
	// free handler. Zero, as every program leaves it, selects
	// DefaultAcceptQueue; tests shrink it. Once it is full, further
	// clients get a cheap BUSY response and are closed (load shedding —
	// clients fail fast and retry).
	acceptQueue int
	// DrainTimeout is how long Close lets in-flight and queued handlers
	// finish naturally before expiring their deadlines. Zero expires
	// immediately (fastest shutdown; handlers unwind via I/O errors).
	DrainTimeout time.Duration
	// Pub, when non-nil, enables the "SUB\n" op: subscribing connections
	// are hijacked out of the request/response worker pool and handed to
	// the publisher. Drive Pub.Tick from the sampler
	// (Sampler.AttachPublisher). Close detaches all subscribers. Set
	// before Serve.
	Pub *Publisher
	// Fence, when non-nil, enables the "MEM\n" op: fenced cap writes,
	// lease renewals and membership commits from the cluster tier's
	// aggregator replicas are decided by this guard (fence.go,
	// memcap.go). Set before Serve.
	Fence *FenceGuard

	reg         *telemetry.Registry
	requests    *telemetry.Counter
	errors      *telemetry.Counter
	rejected    *telemetry.Counter
	shed        *telemetry.Counter
	acceptRetry *telemetry.Counter
	active      *telemetry.Gauge
	queueDepth  *telemetry.Gauge

	aborting atomic.Bool // Close is past its drain window: expire everything

	mu      sync.Mutex
	closed  bool
	conns   map[net.Conn]struct{}
	serving sync.WaitGroup
	// Kept-alive bookkeeping: the worker count, how many connections are
	// queued for or held by a worker, and which of those are waiting
	// between requests — the ones that can be dropped at no one's cost.
	workers  int
	inflight int
	idle     map[net.Conn]struct{}
}

// NewServer creates a snapshot server; call Serve to run it.
func NewServer(bb *Blackboard, clock Clock, ln net.Listener) *Server {
	return &Server{bb: bb, clock: clock, ln: ln,
		conns: make(map[net.Conn]struct{}), idle: make(map[net.Conn]struct{})}
}

// Instrument registers the server's request/error counters in reg and
// makes reg's contents available to clients through the "MET" op. Call
// before Serve.
func (s *Server) Instrument(reg *telemetry.Registry) {
	s.reg = reg
	s.requests = reg.Counter("rcr_ipc_requests_total")
	s.errors = reg.Counter("rcr_ipc_errors_total")
	s.rejected = reg.Counter("rcr_ipc_bad_requests_total")
	s.shed = reg.Counter("rcr_ipc_shed_total")
	s.acceptRetry = reg.Counter("rcr_ipc_accept_retries_total")
	s.active = reg.Gauge("rcr_ipc_active_conns")
	s.queueDepth = reg.Gauge("rcr_ipc_queue_depth")
}

// transientAcceptError reports whether an Accept failure is worth
// retrying: timeouts and the kernel's transient refusals (EMFILE,
// ECONNABORTED, ...) surface as net.Errors that are temporary, not as
// listener death.
func transientAcceptError(err error) bool {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	var te interface{ Temporary() bool }
	return errors.As(err, &te) && te.Temporary()
}

// Serve accepts connections until Close. It returns nil after Close.
//
// Admission control: accepted connections are handed to a fixed pool of
// MaxConns handler workers through a bounded queue of acceptQueue; when
// both are full the server sheds (BUSY response). Transient Accept
// errors back off exponentially and continue — they never kill the
// daemon.
func (s *Server) Serve() error {
	readTO := s.readTimeout
	if readTO <= 0 {
		readTO = DefaultIPCTimeout
	}
	maxConns := s.MaxConns
	if maxConns <= 0 {
		maxConns = DefaultMaxConns
	}
	queueCap := s.acceptQueue
	if queueCap <= 0 {
		queueCap = DefaultAcceptQueue
	}
	s.workers = maxConns
	queue := make(chan net.Conn, queueCap)
	var workers sync.WaitGroup
	workers.Add(maxConns)
	for i := 0; i < maxConns; i++ {
		go func() {
			defer workers.Done()
			// Per-worker scratch: the snapshot copy, the request reader and
			// responses reuse the same backing arrays request after request,
			// so the server side of the hot paths allocates nothing once warm.
			var scr encodeScratch
			for conn := range queue {
				s.queueDepth.Set(float64(len(queue)))
				s.finish(conn, s.handle(conn, readTO, &scr))
			}
		}()
	}
	defer func() {
		close(queue)
		workers.Wait()
	}()
	backoff := acceptBackoffMin
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			if transientAcceptError(err) {
				// EMFILE, ECONNABORTED, accept timeouts: back off and keep
				// serving. Returning here would kill the daemon over a
				// transient kernel refusal.
				s.acceptRetry.Inc()
				time.Sleep(backoff)
				backoff *= 2
				if backoff > acceptBackoffMax {
					backoff = acceptBackoffMax
				}
				continue
			}
			return fmt.Errorf("rcr: accept: %w", err)
		}
		backoff = acceptBackoffMin
		if !s.track(conn) {
			// Closed while accepting: drop the straggler.
			conn.Close()
			return nil
		}
		select {
		case queue <- conn:
			s.queueDepth.Set(float64(len(queue)))
		default:
			// Queue full: answer cheaply instead of hanging the client.
			s.shedConn(conn)
		}
	}
}

// shedConn answers an over-capacity connection with BUSY and closes it.
func (s *Server) shedConn(conn net.Conn) {
	s.shed.Inc()
	s.replyBusy(conn)
	s.finish(conn, false)
}

// replyBusy writes the BUSY header under a short deadline and closes the
// connection. Failures are ignored — the client learns of the overload
// either way.
func (s *Server) replyBusy(conn net.Conn) {
	_ = conn.SetWriteDeadline(time.Now().Add(100 * time.Millisecond))
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], busyHeader)
	_, _ = conn.Write(hdr[:])
	_ = conn.Close()
}

// track registers a live connection; it reports false when the server
// is already closed (the caller must drop the connection). When it is
// one connection more than there are workers, an idle kept-alive peer
// gives up its worker: it is the first thing shed, before any BUSY.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	s.serving.Add(1)
	s.active.Set(float64(len(s.conns)))
	if s.inflight++; s.inflight > s.workers {
		s.expireIdleLocked(1)
	}
	return true
}

// finish retires a connection from the request/response pool: its
// worker or queue slot is free again. A hijacked connection stays
// tracked until its subscriber's exit hook untracks it.
func (s *Server) finish(conn net.Conn, hijacked bool) {
	if !hijacked {
		s.untrack(conn)
	}
	s.mu.Lock()
	s.inflight--
	s.mu.Unlock()
	s.serving.Done()
}

// park marks conn as waiting between requests, with readTO to send the
// whole of the next one. It reports false — close it instead — when the
// server is closing or a queued connection needs this worker. The
// deadline is set under mu so that an expiry can only come after it.
func (s *Server) park(conn net.Conn, readTO time.Duration) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.inflight > s.workers || conn.SetDeadline(time.Now().Add(readTO)) != nil {
		return false
	}
	s.idle[conn] = struct{}{}
	return true
}

// expireIdleLocked cuts short the wait of up to n idle connections; their
// workers see a read timeout with nothing read and close them.
func (s *Server) expireIdleLocked(n int) {
	for conn := range s.idle {
		if n--; n < 0 {
			return
		}
		delete(s.idle, conn)
		_ = conn.SetReadDeadline(time.Unix(1, 0))
	}
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.active.Set(float64(len(s.conns)))
	s.mu.Unlock()
}

// deadline returns the I/O deadline for a handler step: the normal
// timeout while serving, the epoch once Close has decided to abort
// stragglers (so a handler that re-arms its deadline mid-drain still
// unwinds immediately).
func (s *Server) deadline(to time.Duration) time.Time {
	if s.aborting.Load() {
		return time.Unix(1, 0)
	}
	return time.Now().Add(to)
}

// Close stops the server: no new connections are accepted, idle
// kept-alive connections are dropped at once, in-flight and queued
// handlers get DrainTimeout to finish naturally, stragglers are then
// hastened by expiring their deadlines, and Close returns only after
// every handler has drained.
func (s *Server) Close() error {
	s.mu.Lock()
	alreadyClosed := s.closed
	s.closed = true
	s.expireIdleLocked(len(s.idle))
	s.mu.Unlock()
	var err error
	if !alreadyClosed {
		err = s.ln.Close()
	}
	if d := s.DrainTimeout; d > 0 {
		// Graceful phase: wait for the WaitGroup under the drain deadline.
		drained := make(chan struct{})
		go func() {
			s.serving.Wait()
			close(drained)
		}()
		select {
		case <-drained:
		case <-time.After(d):
		}
	}
	// Force phase: expire deadlines on whatever is still alive so stalled
	// handlers unwind immediately instead of waiting out their timeouts.
	// Subscriber connections are tracked too, so this also unwedges any
	// publisher writer blocked mid-Write.
	s.aborting.Store(true)
	past := time.Unix(1, 0)
	s.mu.Lock()
	for conn := range s.conns {
		_ = conn.SetDeadline(past)
	}
	s.mu.Unlock()
	s.serving.Wait()
	if s.Pub != nil {
		s.Pub.DetachAll()
	}
	return err
}

// encodeScratch is a handler worker's reusable snapshot and buffers: in
// reads the connection's requests, buf holds the response being built
// (header included, so it goes out in one write), body a MEM request's
// payload.
type encodeScratch struct {
	snap Snapshot
	in   *bufio.Reader
	buf  []byte
	body []byte
	req  [4]byte
}

// handle serves one connection, request after request, until the peer
// leaves, a request fails or is refused, or the server wants the worker
// back. It reports true when the connection was hijacked by the
// publisher ("SUB\n"): the subscriber's writer now owns the conn, closes
// it on exit, and untracks it via its exit hook.
func (s *Server) handle(conn net.Conn, readTO time.Duration, scr *encodeScratch) (hijacked bool) {
	defer func() {
		if !hijacked {
			_ = conn.Close() // the client has the data or it doesn't
		}
	}()
	// The first request's park-time arm (see "Connection reuse").
	if err := conn.SetDeadline(s.deadline(readTO)); err != nil {
		s.requests.Inc()
		s.errors.Inc()
		return false
	}
	if scr.in == nil { // at the first connection: most workers never see one
		scr.in = bufio.NewReaderSize(nil, ipcReadBuf)
	}
	scr.in.Reset(conn)
	for served := 0; ; served++ {
		if served > 0 && !s.park(conn, readTO) {
			return false
		}
		n, err := io.ReadFull(scr.in, scr.req[:])
		if served > 0 {
			s.mu.Lock()
			delete(s.idle, conn)
			s.mu.Unlock()
			if n == 0 && err != nil {
				return false // the peer is done, or the wait was cut short: not a request
			}
		}
		s.requests.Inc()
		if err != nil {
			s.errors.Inc()
			return false
		}
		scr.buf = append(scr.buf[:0], 0, 0, 0, 0) // the length header, filled in below
		switch string(scr.req[:]) {
		case "GET\n":
			s.bb.SnapshotInto(&scr.snap, s.clock.Now())
			scr.buf = AppendSnapshot(scr.buf, scr.snap)
		case "MET\n":
			if s.reg != nil {
				buf := bytes.NewBuffer(scr.buf)
				if err := s.reg.WriteText(buf); err != nil {
					s.errors.Inc()
					return false
				}
				scr.buf = buf.Bytes()
			}
		case "MEM\n":
			body, ok := s.readBody(scr, capWriteLen+12, capWriteLen+12+MaxMemFrame)
			if !ok {
				return false
			}
			w, err := DecodeMemWrite(body)
			if err != nil {
				s.rejected.Inc()
				return false
			}
			scr.buf = AppendMemAck(scr.buf, s.Fence.OfferMem(w))
		case "SUB\n":
			// Bytes behind SUB would be lost with the reader (Framing).
			if s.Pub == nil || scr.in.Buffered() > 0 {
				s.rejected.Inc()
				return false
			}
			_ = conn.SetDeadline(time.Time{})
			if err := s.Pub.AttachConn(conn, func() { s.untrack(conn) }); err != nil {
				s.errors.Inc()
				return false
			}
			return true
		default:
			s.rejected.Inc()
			return false
		}
		binary.LittleEndian.PutUint32(scr.buf, uint32(len(scr.buf)-4))
		if err := conn.SetDeadline(s.deadline(DefaultIPCTimeout)); err != nil {
			s.errors.Inc()
			return false
		}
		if _, err := conn.Write(scr.buf); err != nil {
			s.errors.Inc()
			return false
		}
	}
}

// readBody reads a fenced request's length-prefixed payload, min to max
// bytes long, into the worker's scratch. The guard decides such
// requests, so a server without one rejects them unread.
func (s *Server) readBody(scr *encodeScratch, min, max uint32) ([]byte, bool) {
	if s.Fence == nil {
		s.rejected.Inc()
		return nil, false
	}
	if _, err := io.ReadFull(scr.in, scr.req[:]); err != nil {
		s.errors.Inc()
		return nil, false
	}
	n := binary.LittleEndian.Uint32(scr.req[:])
	if n < min || n > max {
		s.rejected.Inc()
		return nil, false
	}
	if uint32(cap(scr.body)) < n {
		scr.body = make([]byte, n)
	}
	if _, err := io.ReadFull(scr.in, scr.body[:n]); err != nil {
		s.errors.Inc()
		return nil, false
	}
	return scr.body[:n], true
}

// Query connects to addr (a Unix socket path by default network
// "unix"), requests a snapshot, and decodes it. The whole exchange is
// bounded by DefaultQueryTimeout; use QueryContext for caller-supplied
// deadlines or cancellation.
func Query(network, addr string) (Snapshot, error) {
	ctx, cancel := context.WithTimeout(context.Background(), DefaultQueryTimeout)
	defer cancel()
	return QueryContext(ctx, network, addr)
}

// QueryContext is Query under a context: the dial, request write and
// response read all respect ctx's deadline and cancellation, so a dead
// or wedged server cannot block the caller indefinitely.
func QueryContext(ctx context.Context, network, addr string) (Snapshot, error) {
	return exchange(ctx, network, addr, "GET\n", nil, 0, maxSnapshotBytes, DecodeSnapshot)
}

// QueryMetrics fetches the server's telemetry in WriteText form. An
// uninstrumented server returns "".
func QueryMetrics(ctx context.Context, network, addr string) (string, error) {
	return exchange(ctx, network, addr, "MET\n", nil, 0, maxSnapshotBytes,
		func(p []byte) (string, error) { return string(p), nil })
}

// WriteCap performs one fenced cap write against addr — an epoch-0
// WriteMem, which the guard decides by Offer's fence rules and which
// stores no membership — and returns the shard's ack. A transport
// failure returns an error; a fence rejection is not an error — it
// comes back in the ack so the caller can distinguish "shard
// unreachable" from "you were demoted".
func WriteCap(ctx context.Context, network, addr string, w CapWrite) (CapAck, error) {
	a, err := WriteMem(ctx, network, addr, MemWrite{Write: w})
	return a.Ack, err
}

// ipcReadBuf sizes the server's per-worker request reader and each
// client connection's response buffer: every request and response of
// the steady-state ops fits, so each costs its receiver one read.
const ipcReadBuf = 4 << 10

// The client parks at most maxIdlePerEndpoint connections per (network,
// addr) — what an HA pair in one process can use — and maxIdleConns in
// all, so a process that walks through many endpoints, or whose servers
// went away, holds a fixed number of descriptors.
const (
	maxIdlePerEndpoint = 2
	maxIdleConns       = 128
)

// clientConn is a client connection with what its exchanges reuse, all
// built at dial: the buffer requests are built and responses read in,
// the descriptor the liveness probe reads, and the probe and expiry
// callbacks, so an exchange over a parked connection allocates none of
// them.
type clientConn struct {
	conn   net.Conn
	buf    []byte
	raw    syscall.RawConn       // nil: no probe, so never reused
	live   bool                  // probeLive's result
	peek   [1]byte               // probeLive's read buffer: a local escapes under -race
	probe  func(fd uintptr) bool // cc.probeLive
	expire func()                // cc.expireNow
}

// newClientConn builds conn's reusable parts.
func newClientConn(conn net.Conn) *clientConn {
	cc := &clientConn{conn: conn, buf: make([]byte, ipcReadBuf), raw: rawConn(conn)}
	cc.probe, cc.expire = cc.probeLive, cc.expireNow
	return cc
}

// reusable reports whether a parked connection can carry another
// exchange: the probe must find nothing to read (see "Never resend").
func (cc *clientConn) reusable() bool {
	if cc.raw == nil {
		return false
	}
	cc.live = false
	return cc.raw.Read(cc.probe) == nil && cc.live
}

// expireNow cuts short whatever I/O the connection is blocked in; the
// exchange then fails and closes it.
func (cc *clientConn) expireNow() { _ = cc.conn.SetDeadline(time.Unix(1, 0)) }

// idleConn is a parked connection.
type idleConn struct {
	network, addr string
	*clientConn
	since time.Time
}

// idleConns holds the parked connections, oldest first. No goroutine
// reaps it: entries idle longer than DefaultIPCTimeout are dropped on
// the next access.
var idleConns struct {
	sync.Mutex
	list []idleConn
}

// pruneIdleLocked drops the oldest entries: those idle longer than
// DefaultIPCTimeout, and as many more as leave room for `room` new ones.
func pruneIdleLocked(now time.Time, room int) {
	l, n := idleConns.list, 0
	for n < len(l) && (now.Sub(l[n].since) > DefaultIPCTimeout || len(l)-n > maxIdleConns-room) {
		l[n].conn.Close()
		n++
	}
	if n > 0 {
		idleConns.list = append(l[:0], l[n:]...)
	}
}

// takeIdle removes and returns the endpoint's most recently parked
// connection, or nil.
func takeIdle(network, addr string) *clientConn {
	idleConns.Lock()
	defer idleConns.Unlock()
	pruneIdleLocked(time.Now(), 0)
	l := idleConns.list
	for i := len(l) - 1; i >= 0; i-- {
		if l[i].addr == addr && l[i].network == network {
			cc := l[i].clientConn
			idleConns.list = append(l[:i], l[i+1:]...)
			return cc
		}
	}
	return nil
}

// keepIdle parks cc for the endpoint's next exchange; the endpoint's
// oldest entries beyond its share go.
func keepIdle(network, addr string, cc *clientConn) {
	now := time.Now()
	idleConns.Lock()
	defer idleConns.Unlock()
	pruneIdleLocked(now, 1)
	l, same := idleConns.list, 0
	for i := len(l) - 1; i >= 0; i-- {
		if l[i].addr == addr && l[i].network == network {
			if same++; same >= maxIdlePerEndpoint {
				l[i].conn.Close()
				l = append(l[:i], l[i+1:]...)
			}
		}
	}
	idleConns.list = append(l, idleConn{network, addr, cc, now})
}

// exchange performs one request/response round trip with (network,
// addr) under ctx, over a kept-alive connection when a live one is
// parked. The request is op, then — when body is non-nil — a uint32
// length and body's MEMW encoding. The response payload, whose length
// must lie in [minResp, maxResp], is handed to decode, which must copy
// what it keeps: the buffer goes back to the idle set with the
// connection. The request is written at most once (see "Never resend"
// above): every failure is the caller's to handle.
func exchange[T any](ctx context.Context, network, addr, op string, body *MemWrite, minResp, maxResp uint32, decode func([]byte) (T, error)) (v T, err error) {
	if err := ctx.Err(); err != nil {
		return v, fmt.Errorf("rcr: dial %s: %w", addr, err)
	}
	cc := takeIdle(network, addr)
	for cc != nil && !cc.reusable() {
		cc.conn.Close()
		cc = takeIdle(network, addr)
	}
	if cc == nil {
		var d net.Dialer
		conn, err := d.DialContext(ctx, network, addr)
		if err != nil {
			return v, fmt.Errorf("rcr: dial %s: %w", addr, err)
		}
		cc = newClientConn(conn)
	}
	// Past the dial, ctx reaches the connection only through this
	// callback: its deadline passing or its cancellation expires the
	// connection mid-exchange. No deadline is armed otherwise, so a
	// parked connection carries no timer (see "Connection reuse").
	stop := context.AfterFunc(ctx, cc.expire)
	defer func() {
		// Fit for reuse only after a whole, in-bounds exchange, and only if
		// the context can no longer reach in and expire the connection.
		if stop() && err == nil {
			keepIdle(network, addr, cc)
		} else {
			cc.conn.Close()
		}
	}()
	conn, buf := cc.conn, cc.buf
	req := append(buf[:0], op...)
	if body != nil {
		req = AppendMemWrite(append(req, 0, 0, 0, 0), *body)
		binary.LittleEndian.PutUint32(req[len(op):], uint32(len(req)-len(op)-4))
	}
	if _, err := conn.Write(req); err != nil {
		// A shedding server answers BUSY and closes without ever reading
		// the request (shedConn), so this write can lose the race and fail
		// with a broken pipe while the response already sits in our
		// receive buffer. Prefer the answer the server actually sent.
		if _, rerr := io.ReadFull(conn, buf[:4]); rerr == nil &&
			binary.LittleEndian.Uint32(buf) == busyHeader {
			return v, ErrBusy
		}
		return v, fmt.Errorf("rcr: request: %w", err)
	}
	got, err := io.ReadAtLeast(conn, buf, 4)
	if err != nil {
		return v, fmt.Errorf("rcr: response header: %w", err)
	}
	n := binary.LittleEndian.Uint32(buf)
	if n == busyHeader {
		return v, ErrBusy
	}
	if n < minResp || n > maxResp {
		return v, fmt.Errorf("rcr: implausible response size %d", n)
	}
	end := 4 + int(n)
	if got > end {
		return v, fmt.Errorf("rcr: %d bytes past the response", got-end)
	}
	resp := buf
	if end > len(buf) {
		resp = make([]byte, end) // this exchange's alone; buf is what parks
		copy(resp, buf[:got])
	}
	if _, err := io.ReadFull(conn, resp[got:end]); err != nil {
		return v, fmt.Errorf("rcr: response body: %w", err)
	}
	return decode(resp[4:end])
}

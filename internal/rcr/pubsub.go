package rcr

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/telemetry"
)

// Pub/sub fan-out: instead of polling GET (a full snapshot serialization
// per query), a client sends "SUB\n" once and the server pushes one
// length-prefixed frame per sampler tick — a full frame ("RCRF") to open
// or resync the stream, then delta frames ("RCRD") carrying only the
// slots that moved. The server encodes each tick's delta exactly once,
// into a buffer the publisher owns, so fan-out cost is copies and
// writes, not serializations — the closest IPC analogue of the paper's
// many-readers shared-memory region.
//
// Delivery has two paths. A publisher with exactly one subscriber, whose
// backlog is empty and whose writer is idle, writes the frame itself
// from the ticking goroutine with one non-blocking write(2): the usual
// daemon has one reader (MAESTRO, or a shard's aggregator), and it
// should not pay two goroutine hand-offs for a fan-out it does not have.
// Every other frame, and whatever of a frame the socket does not accept,
// is copied onto the subscriber's byte backlog. Its writer goroutine
// takes the whole backlog in one critical section and writes it in one
// call (frames are length-prefixed, so concatenation is the wire
// format). With two or more subscribers every frame takes that path, so
// the tick never pays one syscall per subscriber.
//
// Slow subscribers never stall the tick: each backlog holds at most
// QueueDepth frames; on overflow the oldest is dropped and the
// subscriber is marked for resync, receiving a fresh full frame
// (FlagResync) on the next tick instead of a broken delta chain. A frame
// whose start is already on the wire is never dropped.

// DefaultSubQueueDepth is the per-subscriber frame queue bound.
const DefaultSubQueueDepth = 8

// fullFlagsAt is the offset of a length-prefixed full frame's flags
// byte: prefix, magic, gen, ver, now.
const fullFlagsAt = 4 + 4 + 4 + 8 + 8

// Publisher fans blackboard deltas out to subscribers on every Tick.
// Attach subscribers via the Server's SUB op (or AttachConn directly);
// drive ticks from the sampler (Sampler.AttachPublisher).
type Publisher struct {
	bb *Blackboard

	// QueueDepth bounds each subscriber's pending-frame queue; zero
	// selects DefaultSubQueueDepth. When a queue is full the oldest frame
	// is dropped and the subscriber resyncs from a full frame.
	QueueDepth int

	tmu      sync.Mutex // serializes Tick with itself; guards the tick scratch
	delta    DeltaFrame
	full     FullFrame
	deltaBuf []byte // this tick's encoded delta frame; empty until needed
	fullBuf  []byte // this tick's encoded full frame; empty until needed
	lastVer  uint64
	lastGen  uint32
	started  bool

	mu     sync.Mutex
	subs   map[*subscriber]struct{}
	closed bool
	wg     sync.WaitGroup

	subscribers *telemetry.Gauge
	ticks       *telemetry.Counter
	frames      *telemetry.Counter
	fullFrames  *telemetry.Counter
	dropped     *telemetry.Counter
	resyncs     *telemetry.Counter
	disconnects *telemetry.Counter
	bytesOut    *telemetry.Counter
}

// subscriber is one attached connection.
type subscriber struct {
	conn     net.Conn
	wake     chan struct{} // the backlog may hold frames; closed at detach
	busy     atomic.Bool   // the writer holds a batch it has not finished writing
	detached bool          // guarded by Publisher.mu; wake already closed
	onExit   func()

	mu       sync.Mutex
	backlog  []byte // frames waiting for the writer, concatenated
	ends     []int  // end offset in backlog of each frame
	begun    bool   // backlog's first frame is the rest of one begun on the wire
	needFull bool   // next tick must send a full frame
	initial  bool   // never sent anything yet (FlagInitial)
	dead     bool   // a write failed or DetachAll ran; write no more

	// Write-through (deliver). Set at attach, then used only by Tick.
	raw     syscall.RawConn       // nil: no non-blocking write; always queue
	out     []byte                // what writeFn writes
	wrote   int                   // writeFn's result
	werr    error                 // writeFn's result
	writeFn func(fd uintptr) bool // built once, so Tick allocates nothing
}

// NewPublisher creates a publisher over bb.
func NewPublisher(bb *Blackboard) *Publisher {
	return &Publisher{bb: bb, subs: make(map[*subscriber]struct{})}
}

// Instrument registers the publisher's rcr_sub_* instruments in reg.
// Call before attaching subscribers.
func (p *Publisher) Instrument(reg *telemetry.Registry) {
	p.subscribers = reg.Gauge("rcr_sub_subscribers")
	p.ticks = reg.Counter("rcr_sub_ticks_total")
	p.frames = reg.Counter("rcr_sub_frames_total")
	p.fullFrames = reg.Counter("rcr_sub_full_frames_total")
	p.dropped = reg.Counter("rcr_sub_dropped_frames_total")
	p.resyncs = reg.Counter("rcr_sub_resyncs_total")
	p.disconnects = reg.Counter("rcr_sub_disconnects_total")
	p.bytesOut = reg.Counter("rcr_sub_bytes_total")
}

// Subscribers returns the current subscriber count.
func (p *Publisher) Subscribers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.subs)
}

// AttachConn registers conn as a subscriber and starts its writer
// goroutine. onExit (may be nil) runs exactly once when the writer
// exits — the Server uses it to untrack hijacked connections. The
// subscriber receives a FlagInitial full frame on the next tick.
func (p *Publisher) AttachConn(conn net.Conn, onExit func()) error {
	sub, err := p.attach(conn, onExit)
	if err != nil {
		return err
	}
	go p.writer(sub)
	return nil
}

// attach registers conn as a subscriber whose writer the caller starts.
func (p *Publisher) attach(conn net.Conn, onExit func()) (*subscriber, error) {
	sub := &subscriber{
		conn:     conn,
		wake:     make(chan struct{}, 1),
		onExit:   onExit,
		needFull: true,
		initial:  true,
	}
	if sub.raw = rawConn(conn); sub.raw != nil {
		sub.writeFn = func(fd uintptr) bool {
			sub.wrote, sub.werr = writeNow(fd, sub.out)
			return true // one try; never wait for the socket
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, errors.New("rcr: publisher closed")
	}
	p.subs[sub] = struct{}{}
	p.subscribers.Set(float64(len(p.subs)))
	p.wg.Add(1)
	return sub, nil
}

func (p *Publisher) queueDepth() int {
	if p.QueueDepth > 0 {
		return p.QueueDepth
	}
	return DefaultSubQueueDepth
}

// writer writes sub's backlog until sub is detached, and detaches it on
// the first error. Each wake-up swaps the whole backlog out under the
// lock, so the tick keeps appending to the other buffer during the
// write. It clears busy only once the write has returned, so Tick
// writes through only after the writer's bytes are on the wire.
func (p *Publisher) writer(sub *subscriber) {
	defer p.wg.Done()
	var batch []byte
	for range sub.wake {
		sub.mu.Lock()
		batch, sub.backlog = sub.backlog, batch[:0]
		n := len(sub.ends)
		sub.ends = sub.ends[:0]
		sub.begun = false
		write := n > 0 && !sub.dead
		sub.busy.Store(write)
		sub.mu.Unlock()
		if !write {
			continue
		}
		_ = sub.conn.SetWriteDeadline(time.Now().Add(DefaultIPCTimeout))
		if _, err := sub.conn.Write(batch); err != nil {
			sub.mu.Lock()
			sub.dead = true // before busy clears: Tick must not try conn
			sub.mu.Unlock()
			p.disconnects.Inc()
			p.detach(sub)
		} else {
			p.frames.Add(uint64(n))
			p.bytesOut.Add(uint64(len(batch)))
		}
		sub.busy.Store(false)
	}
	_ = sub.conn.Close()
	if sub.onExit != nil {
		sub.onExit()
	}
}

// detach removes sub and closes its wake channel (idempotent); the
// writer then exits.
func (p *Publisher) detach(sub *subscriber) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.detachLocked(sub)
}

func (p *Publisher) detachLocked(sub *subscriber) {
	if sub.detached {
		return
	}
	sub.detached = true
	delete(p.subs, sub)
	p.subscribers.Set(float64(len(p.subs)))
	close(sub.wake)
}

// Tick collects and fans out one frame generation: at most one delta
// encode and one full encode per call, regardless of subscriber count.
// It never blocks on a subscriber — safe to call from the sampler's
// engine-tick context. now is the virtual timestamp stamped on frames.
func (p *Publisher) Tick(now time.Duration) {
	p.tmu.Lock()
	defer p.tmu.Unlock()
	p.ticks.Inc()

	gen := p.bb.SchemaGen()
	schemaChanged := p.started && gen != p.lastGen
	p.started = true

	p.bb.CollectDelta(p.lastVer, &p.delta)
	p.delta.Now = now
	p.lastVer = p.delta.To
	p.lastGen = p.delta.Gen
	p.deltaBuf, p.fullBuf = p.deltaBuf[:0], p.fullBuf[:0]

	p.mu.Lock()
	defer p.mu.Unlock()
	sole := len(p.subs) == 1
	for sub := range p.subs {
		sub.mu.Lock()
		if !sub.dead {
			p.tickSub(sub, now, schemaChanged, sole)
		}
		sub.mu.Unlock()
	}
}

// tickSub delivers this tick's frame to sub, with p.mu and sub.mu held.
func (p *Publisher) tickSub(sub *subscriber, now time.Duration, schemaChanged, sole bool) {
	var frame []byte
	if schemaChanged {
		sub.needFull = true
	}
	if sub.needFull {
		if len(p.fullBuf) == 0 {
			p.bb.CollectFull(&p.full)
			p.full.Now = now
			p.full.Flags = 0
			if schemaChanged {
				p.full.Flags = FlagSchemaChange
			}
			p.fullBuf = lengthPrefix(AppendFullFrame(append(p.fullBuf, 0, 0, 0, 0), &p.full))
			// A full frame's version may exceed the delta basis (its
			// scan ran later); SubState's overlap rules absorb that.
			p.fullFrames.Inc()
		}
		// Delivery copies the frame before the next subscriber's patch.
		if sub.initial {
			p.fullBuf[fullFlagsAt] = p.full.Flags | FlagInitial
		} else {
			p.fullBuf[fullFlagsAt] = p.full.Flags | FlagResync
		}
		frame = p.fullBuf
		// The full frame supersedes the whole backlog but the rest of a
		// frame begun on the wire.
		keep, size := 0, 0
		if sub.begun {
			keep, size = 1, sub.ends[0]
		}
		p.dropped.Add(uint64(len(sub.ends) - keep))
		sub.ends, sub.backlog = sub.ends[:keep], sub.backlog[:size]
	} else {
		if len(p.deltaBuf) == 0 {
			p.deltaBuf = lengthPrefix(AppendDeltaFrame(append(p.deltaBuf, 0, 0, 0, 0), &p.delta))
		}
		frame = p.deltaBuf
	}
	switch {
	case !p.deliver(sub, frame, sole):
		// Overflow: the chain to this subscriber is broken anyway, so
		// resync from a full frame next tick rather than queueing a
		// delta it cannot apply.
		sub.needFull = true
		p.resyncs.Inc()
	case sub.needFull:
		sub.needFull, sub.initial = false, false
	}
}

// lengthPrefix fills in the 4-byte length prefix of an encoded frame.
func lengthPrefix(b []byte) []byte {
	binary.LittleEndian.PutUint32(b, uint32(len(b)-4))
	return b
}

// deliver hands frame to sub, whose lock the caller holds: it writes
// the frame through when sub is the sole subscriber, its backlog is
// empty and its writer idle, and appends it, or whatever of it the
// socket did not take, to the backlog otherwise. It reports false on a
// backlog overflow.
func (p *Publisher) deliver(sub *subscriber, frame []byte, sole bool) bool {
	if sole && sub.raw != nil && len(sub.ends) == 0 && !sub.busy.Load() {
		n, err := sub.writeThrough(frame)
		switch {
		case err != nil:
			sub.dead = true
			p.disconnects.Inc()
			p.detachLocked(sub)
			return true
		case n == len(frame):
			p.frames.Inc()
			p.bytesOut.Add(uint64(n))
			return true
		case n > 0:
			// The writer counts the frame when it writes the rest.
			p.bytesOut.Add(uint64(n))
			sub.begun = true
			frame = frame[n:]
		}
	}
	if len(sub.ends) >= p.queueDepth() {
		// Drop the oldest frame, or this one while the oldest is the
		// rest of a frame begun on the wire.
		p.dropped.Inc()
		if !sub.begun {
			cut := sub.ends[0]
			sub.backlog = append(sub.backlog[:0], sub.backlog[cut:]...)
			sub.ends = append(sub.ends[:0], sub.ends[1:]...)
			for i := range sub.ends {
				sub.ends[i] -= cut
			}
		}
		return false
	}
	sub.backlog = append(sub.backlog, frame...)
	sub.ends = append(sub.ends, len(sub.backlog))
	select {
	case sub.wake <- struct{}{}:
	default: // a wake-up is already pending
	}
	return true
}

// writeThrough writes frame to the socket with one non-blocking write
// and reports how much of it the socket took.
func (sub *subscriber) writeThrough(frame []byte) (int, error) {
	sub.out = frame
	err := sub.raw.Write(sub.writeFn)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		// A write deadline set earlier (by the writer, or by the request
		// path before SUB) has passed, so the write was never tried. The
		// writer sets a fresh one before each write: clear it and retry.
		// DetachAll's deadline is not this one: it marks sub dead first.
		_ = sub.conn.SetWriteDeadline(time.Time{})
		err = sub.raw.Write(sub.writeFn)
	}
	sub.out = nil
	if err == nil {
		err = sub.werr
	}
	return sub.wrote, err
}

// DetachAll disconnects every subscriber and waits for their writers to
// exit. Further AttachConn calls fail. Used by Server.Close and by
// harness teardown; the goroutine-leak gates depend on it.
func (p *Publisher) DetachAll() {
	p.mu.Lock()
	p.closed = true
	subs := make([]*subscriber, 0, len(p.subs))
	for sub := range p.subs {
		subs = append(subs, sub)
	}
	p.mu.Unlock()
	past := time.Unix(1, 0)
	for _, sub := range subs {
		sub.mu.Lock()
		sub.dead = true
		sub.mu.Unlock()
		_ = sub.conn.SetDeadline(past) // unwedge a writer blocked in Write
		p.detach(sub)
	}
	p.wg.Wait()
}

// Subscription is the client side of the SUB stream: it decodes pushed
// frames into a materialized SubState, reusing its buffers so steady
// state reads allocate only inside Snapshot(). Reads are buffered, so a
// burst of coalesced frames costs one syscall.
type Subscription struct {
	conn  net.Conn
	br    *bufio.Reader
	state SubState
	delta DeltaFrame
	full  FullFrame
	buf   []byte
	hdr   [4]byte

	watchCtx  context.Context
	stopWatch func() bool
}

// Subscribe dials addr and opens a push stream. The first frame (a
// FlagInitial full frame) arrives on the server's next tick.
func Subscribe(ctx context.Context, network, addr string) (*Subscription, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, network, addr)
	if err != nil {
		return nil, fmt.Errorf("rcr: dial %s: %w", addr, err)
	}
	if deadline, ok := ctx.Deadline(); ok {
		_ = conn.SetWriteDeadline(deadline)
	}
	if _, err := conn.Write([]byte("SUB\n")); err != nil {
		conn.Close()
		return nil, fmt.Errorf("rcr: subscribe: %w", err)
	}
	_ = conn.SetWriteDeadline(time.Time{})
	return &Subscription{conn: conn, br: bufio.NewReaderSize(conn, 16<<10)}, nil
}

// State exposes the materialized blackboard copy. Valid after the first
// successful Next; check State().Ready().
func (s *Subscription) State() *SubState { return &s.state }

// Snapshot converts the current state to the legacy deep-copy form.
func (s *Subscription) Snapshot() Snapshot { return s.state.Snapshot() }

// Next blocks for the next pushed frame and applies it. A nil return
// means the state advanced (or a heartbeat refreshed Now). ErrDeltaGap
// means a frame arrived that does not connect — the state is unchanged
// and the caller may keep reading (the server resyncs with a full frame
// after drops) or tear down and resubscribe. Other errors are fatal to
// the stream. ErrBusy reports a server that shed the subscription.
//
// The cancellation watch is armed once per distinct ctx (not per call),
// so a steady read loop passing the same ctx pays no per-frame setup;
// canceling that ctx kills the stream even between Next calls.
func (s *Subscription) Next(ctx context.Context) error {
	if ctx != s.watchCtx {
		if s.stopWatch != nil {
			s.stopWatch()
		}
		if deadline, ok := ctx.Deadline(); ok {
			if err := s.conn.SetReadDeadline(deadline); err != nil {
				return fmt.Errorf("rcr: deadline: %w", err)
			}
		} else if err := s.conn.SetReadDeadline(time.Time{}); err != nil {
			return fmt.Errorf("rcr: deadline: %w", err)
		}
		s.watchCtx = ctx
		s.stopWatch = context.AfterFunc(ctx, func() { _ = s.conn.SetDeadline(time.Unix(1, 0)) })
	}
	if _, err := io.ReadFull(s.br, s.hdr[:]); err != nil {
		return fmt.Errorf("rcr: frame header: %w", err)
	}
	n := binary.LittleEndian.Uint32(s.hdr[:])
	if n == busyHeader {
		return ErrBusy
	}
	if n > maxSnapshotBytes {
		return fmt.Errorf("rcr: implausible frame size %d", n)
	}
	if cap(s.buf) < int(n) {
		s.buf = make([]byte, n)
	}
	s.buf = s.buf[:n]
	if _, err := io.ReadFull(s.br, s.buf); err != nil {
		return fmt.Errorf("rcr: frame body: %w", err)
	}
	switch {
	case IsFullFrame(s.buf):
		if err := DecodeFullFrame(s.buf, &s.full); err != nil {
			return err
		}
		return s.state.ApplyFull(&s.full)
	case IsDeltaFrame(s.buf):
		if err := DecodeDeltaFrame(s.buf, &s.delta); err != nil {
			return err
		}
		return s.state.ApplyDelta(&s.delta)
	default:
		return fmt.Errorf("rcr: unknown frame magic %q", s.buf[:min(4, len(s.buf))])
	}
}

// Close tears down the stream.
func (s *Subscription) Close() error {
	if s.stopWatch != nil {
		s.stopWatch()
		s.stopWatch = nil
	}
	return s.conn.Close()
}

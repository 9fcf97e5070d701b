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
// slots that moved. The server encodes each tick's delta exactly once
// and shares the buffer across every subscriber through refcounted
// frames, so fan-out cost is writes, not serializations — the closest
// IPC analogue of the paper's many-readers shared-memory region.
//
// Delivery has two paths. A publisher with exactly one subscriber, and
// nothing queued or being written for it, writes the frame itself from
// the ticking goroutine with one non-blocking write(2): the usual daemon
// has one reader (MAESTRO, or a shard's aggregator), and it should not
// pay two goroutine hand-offs for a fan-out it does not have. Whatever
// the socket does not accept, and every frame while anything is pending,
// goes to the subscriber's writer goroutine, which coalesces queued
// frames into one write. With two or more subscribers every frame takes
// that path, so the tick never pays one syscall per subscriber.
//
// Slow subscribers never stall the tick: each has a bounded queue; on
// overflow the oldest queued frame is dropped and the subscriber is
// marked for resync, receiving a fresh full frame (FlagResync) on the
// next tick instead of a broken delta chain.

// DefaultSubQueueDepth is the per-subscriber frame queue bound.
const DefaultSubQueueDepth = 8

// Publisher fans blackboard deltas out to subscribers on every Tick.
// Attach subscribers via the Server's SUB op (or AttachConn directly);
// drive ticks from the sampler (Sampler.AttachPublisher).
type Publisher struct {
	bb *Blackboard

	// QueueDepth bounds each subscriber's pending-frame queue; zero
	// selects DefaultSubQueueDepth. When a queue is full the oldest frame
	// is dropped and the subscriber resyncs from a full frame.
	QueueDepth int

	pool sync.Pool // *frameBuf

	tmu     sync.Mutex // serializes Tick with itself
	delta   DeltaFrame // tick scratch
	full    FullFrame  // tick scratch
	lastVer uint64
	lastGen uint32
	started bool

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

// frameBuf is one encoded frame shared by every subscriber queue it sits
// in; the last release returns it to the pool.
type frameBuf struct {
	buf  []byte
	refs atomic.Int32
	pool *sync.Pool
}

func (fb *frameBuf) release() {
	if fb.refs.Add(-1) == 0 {
		fb.pool.Put(fb)
	}
}

// subscriber is one attached connection.
type subscriber struct {
	conn     net.Conn
	q        chan *frameBuf
	needFull atomic.Bool // next tick must send a full frame
	initial  bool        // never sent anything yet (FlagInitial)
	dead     atomic.Bool // writer hit an error; drain without writing
	detached bool        // guarded by Publisher.mu; q already closed
	onExit   func()

	// Write-through state (writeThrough). raw and writeFn are set at
	// attach; written is the writer's; the rest is Tick's, guarded by
	// Publisher.mu. queued counts frames handed to q and not dropped by
	// Tick; written counts those the writer has finished.
	// While they differ a frame is queued or in the writer's hands, and
	// only the writer may write conn. tail, when non-zero, numbers the
	// queued rest of a frame whose start is already on the wire: until
	// written reaches it no drop may take the head of q.
	raw     syscall.RawConn // nil: no non-blocking write; always queue
	queued  uint64
	written atomic.Uint64
	tail    uint64
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
		conn:   conn,
		q:      make(chan *frameBuf, p.queueDepth()),
		onExit: onExit,
	}
	sub.needFull.Store(true)
	sub.initial = true
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

// maxWriteBatch bounds how many queued bytes a subscriber writer
// coalesces into one syscall.
const maxWriteBatch = 32 << 10

// writer drains sub's queue, coalescing whatever frames are already
// waiting into a single write (frames are length-prefixed, so
// concatenation is the wire format), and detaches on the first error.
// It counts a batch in written only once its write has returned, so
// Tick writes through only after the writer's bytes are on the wire.
// It always fully drains the (closed) queue so shared frame refcounts
// balance.
func (p *Publisher) writer(sub *subscriber) {
	defer p.wg.Done()
	var batch []byte
	for fb := range sub.q {
		if sub.dead.Load() {
			fb.release()
			sub.written.Add(1)
			continue
		}
		nFrames := uint64(1)
		batch = append(batch[:0], fb.buf...)
		fb.release()
	coalesce:
		for len(batch) < maxWriteBatch {
			select {
			case more, ok := <-sub.q:
				if !ok {
					break coalesce // closed; the outer range exits after this write
				}
				batch = append(batch, more.buf...)
				more.release()
				nFrames++
			default:
				break coalesce
			}
		}
		_ = sub.conn.SetWriteDeadline(time.Now().Add(DefaultIPCTimeout))
		_, err := sub.conn.Write(batch)
		if err != nil {
			sub.dead.Store(true) // before written: Tick must not try conn
		}
		sub.written.Add(nFrames)
		if err != nil {
			p.disconnects.Inc()
			p.detach(sub)
		} else {
			p.frames.Add(nFrames)
			p.bytesOut.Add(uint64(len(batch)))
		}
	}
	_ = sub.conn.Close()
	if sub.onExit != nil {
		sub.onExit()
	}
}

// detach removes sub and closes its queue (idempotent). The writer keeps
// draining the closed queue, then exits.
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
	close(sub.q)
}

// acquire returns a pooled frame buffer holding one publisher reference.
func (p *Publisher) acquire() *frameBuf {
	fb, _ := p.pool.Get().(*frameBuf)
	if fb == nil {
		fb = &frameBuf{pool: &p.pool}
	}
	fb.buf = fb.buf[:0]
	fb.refs.Store(1)
	return fb
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

	var deltaFB *frameBuf
	var fullFB *frameBuf
	defer func() {
		if deltaFB != nil {
			deltaFB.release()
		}
		if fullFB != nil {
			fullFB.release()
		}
	}()

	p.mu.Lock()
	defer p.mu.Unlock()
	sole := len(p.subs) == 1
	for sub := range p.subs {
		if schemaChanged {
			sub.needFull.Store(true)
		}
		if sub.needFull.Load() {
			if sub.tailOutstanding() {
				// Draining now could drop the rest of a frame already
				// begun on the wire; resync once the writer has it.
				continue
			}
			if fullFB == nil {
				p.bb.CollectFull(&p.full)
				p.full.Now = now
				p.full.Flags = 0
				if schemaChanged {
					p.full.Flags |= FlagSchemaChange
				}
				fullFB = p.acquire()
				fullFB.buf = append(fullFB.buf, 0, 0, 0, 0)
				fullFB.buf = AppendFullFrame(fullFB.buf, &p.full)
				binary.LittleEndian.PutUint32(fullFB.buf[:4], uint32(len(fullFB.buf)-4))
				// A full frame's version may exceed the delta basis (its
				// scan ran later); SubState's overlap rules absorb that.
				p.fullFrames.Inc()
			}
			// The full frame supersedes everything queued: drain first so
			// it cannot be the frame a later overflow drops.
			p.drainQueue(sub)
			flags := p.full.Flags
			if sub.initial {
				flags |= FlagInitial
			} else {
				flags |= FlagResync
			}
			// Flags live at a fixed offset (4-byte length prefix + magic +
			// gen + ver + now); patching them in place would race on the
			// shared buffer, so per-subscriber flag variants get their own
			// copy. Full frames are the rare resync path, so the copy is
			// cheap where it matters.
			if flags != p.full.Flags {
				fb := p.acquire()
				fb.buf = append(fb.buf, fullFB.buf...)
				fb.buf[4+4+4+8+8] = flags
				fb.refs.Add(1)
				p.deliver(sub, fb, sole)
				fb.release() // creation reference
			} else {
				fullFB.refs.Add(1)
				p.deliver(sub, fullFB, sole)
			}
			sub.needFull.Store(false)
			sub.initial = false
			continue
		}
		if deltaFB == nil {
			deltaFB = p.acquire()
			deltaFB.buf = append(deltaFB.buf, 0, 0, 0, 0)
			deltaFB.buf = AppendDeltaFrame(deltaFB.buf, &p.delta)
			binary.LittleEndian.PutUint32(deltaFB.buf[:4], uint32(len(deltaFB.buf)-4))
		}
		deltaFB.refs.Add(1)
		if !p.deliver(sub, deltaFB, sole) {
			// Overflow: the chain to this subscriber is broken anyway, so
			// drop the oldest queued frame and resync from a full frame
			// next tick rather than queueing a delta it cannot apply.
			sub.needFull.Store(true)
			p.resyncs.Inc()
		}
	}
}

// deliver hands fb (whose reference the caller has already added) to
// sub: written through when sub is the sole subscriber and the socket
// takes it, queued otherwise. It reports false on a queue overflow.
func (p *Publisher) deliver(sub *subscriber, fb *frameBuf, sole bool) bool {
	if sole && p.writeThrough(sub, fb) {
		return true
	}
	return p.enqueue(sub, fb)
}

// writeThrough writes fb to sub's socket with one non-blocking write,
// provided nothing is queued or being written for sub. It reports false
// when it did not try. Otherwise it has consumed fb's reference: the
// whole frame went out, or the rest of it is queued for the writer
// (behind nothing, so it cannot overflow), or the write failed and sub
// is detached. Called from Tick with p.mu held.
func (p *Publisher) writeThrough(sub *subscriber, fb *frameBuf) bool {
	if sub.raw == nil || sub.dead.Load() || sub.written.Load() != sub.queued {
		return false
	}
	sub.out = fb.buf
	err := sub.raw.Write(sub.writeFn)
	if errors.Is(err, os.ErrDeadlineExceeded) && !sub.dead.Load() {
		// A write deadline set earlier (by the writer, or by the request
		// path before SUB) has passed, so the write was never tried. The
		// writer sets a fresh one before each write: clear it and retry.
		_ = sub.conn.SetWriteDeadline(time.Time{})
		err = sub.raw.Write(sub.writeFn)
	}
	sub.out = nil
	if err == nil {
		err = sub.werr
	}
	n := sub.wrote
	switch {
	case err != nil:
		fb.release()
		sub.dead.Store(true)
		p.disconnects.Inc()
		p.detachLocked(sub)
	case n == len(fb.buf):
		fb.release()
		p.frames.Inc()
		p.bytesOut.Add(uint64(n))
	case n == 0:
		p.enqueue(sub, fb)
	default:
		// The writer counts the frame when it writes the rest.
		p.bytesOut.Add(uint64(n))
		rest := p.acquire()
		rest.buf = append(rest.buf, fb.buf[n:]...)
		fb.release()
		p.enqueue(sub, rest)
		sub.tail = sub.queued
	}
	return true
}

// tailOutstanding reports whether the rest of a partly written frame
// may still be queued, where a drop could take it.
func (sub *subscriber) tailOutstanding() bool {
	if sub.tail != 0 && sub.written.Load() >= sub.tail {
		sub.tail = 0
	}
	return sub.tail != 0
}

// enqueue offers fb (whose reference the caller has already added) to
// sub without blocking. On overflow it drops the oldest queued frame —
// or fb itself while the head is the rest of a frame begun on the wire
// — releases fb's reference, and reports false.
func (p *Publisher) enqueue(sub *subscriber, fb *frameBuf) bool {
	if sub.detached {
		fb.release()
		return false
	}
	sub.queued++
	select {
	case sub.q <- fb:
		return true
	default:
	}
	sub.queued--
	if sub.tailOutstanding() {
		p.dropped.Inc()
	} else {
		select {
		case old := <-sub.q:
			old.release()
			sub.queued--
			p.dropped.Inc()
		default:
		}
	}
	fb.release()
	return false
}

// drainQueue empties sub's queue, releasing every dropped frame.
func (p *Publisher) drainQueue(sub *subscriber) {
	for {
		select {
		case fb := <-sub.q:
			fb.release()
			sub.queued--
			p.dropped.Inc()
		default:
			return
		}
	}
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
		sub.dead.Store(true)
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

package rcr

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/resilience/leak"
	"repro/internal/telemetry"
)

// The kept-alive transport's contract (ipc.go, "Connection reuse",
// "Framing" and "Never resend"), tested at the socket.

// flushIdle empties the client's idle set, so a test starts from a
// known state whatever ran before it.
func flushIdle() {
	idleConns.Lock()
	for _, ic := range idleConns.list {
		ic.conn.Close()
	}
	idleConns.list = nil
	idleConns.Unlock()
}

// idleFor counts the client's parked connections to addr.
func idleFor(addr string) int {
	idleConns.Lock()
	defer idleConns.Unlock()
	n := 0
	for _, ic := range idleConns.list {
		if ic.addr == addr {
			n++
		}
	}
	return n
}

// parked counts the connections the server holds between requests.
func (s *Server) parked() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.idle)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// serveAt runs a server incarnation on sock and returns it with its
// stop function, which is also registered as cleanup.
func serveAt(t testing.TB, sock string, tune func(*Server)) (*Server, func()) {
	t.Helper()
	if err := os.Remove(sock); err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	bb, _ := NewBlackboard(1, 1)
	bb.SetSystem(MeterEnergy, 5, 0)
	srv := NewServer(bb, &fakeClock{}, ln)
	if tune != nil {
		tune(srv)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			if err := srv.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
			if err := <-done; err != nil {
				t.Errorf("Serve returned %v after Close", err)
			}
		})
	}
	t.Cleanup(stop)
	return srv, stop
}

func testCtx(t testing.TB) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// TestFencedWritesAcrossServerRestart: the guard outlives its server,
// as a node's fence ratchet outlives its daemon. A connection parked
// against the dead incarnation must be found dead before anything is
// written to it, so the first write after the restart lands on a fresh
// dial — and no write ever reaches the guard twice, which it would
// refuse as a stale seq.
func TestFencedWritesAcrossServerRestart(t *testing.T) {
	leak.Check(t)
	flushIdle()
	sock := filepath.Join(t.TempDir(), "rcrd.sock")
	var applied []float64 // the guard serializes its apply seam
	guard := NewFenceGuard((&fenceTestClock{}).Now, func(cap float64, _ uint64) error {
		applied = append(applied, cap)
		return nil
	})
	reg := telemetry.NewRegistry()
	guard.Instrument(reg)
	ctx := testCtx(t)
	seq := uint64(0)
	write := func(mem bool) {
		t.Helper()
		seq++
		w := CapWrite{Fence: 1, Leader: 1, Seq: seq, Lease: time.Minute, HasCap: true, Cap: float64(seq)}
		var ack CapAck
		var err error
		if mem {
			var mack MemAck
			mack, err = WriteMem(ctx, "unix", sock, MemWrite{Write: w, Epoch: seq, Frame: []byte("frame")})
			ack = mack.Ack
		} else {
			ack, err = WriteCap(ctx, "unix", sock, w)
		}
		if err != nil || ack.Status != CapApplied {
			t.Fatalf("write seq %d (mem %v): ack %+v, err %v", seq, mem, ack, err)
		}
	}
	for life := 0; life < 3; life++ {
		srv, stop := serveAt(t, sock, func(s *Server) {
			s.Fence = guard
			s.Instrument(telemetry.NewRegistry())
		})
		write(life%2 == 1) // the first write of a life meets the last one's corpse
		write(true)
		write(false)
		if got := srv.requests.Value(); got != 3 {
			t.Errorf("life %d: server counted %d requests, want 3", life, got)
		}
		if n := idleFor(sock); n != 1 {
			t.Errorf("life %d: %d connections parked, want the one reused", life, n)
		}
		stop()
	}
	for i, cap := range applied {
		if cap != float64(i+1) {
			t.Fatalf("apply seam saw %v, want every seq once, in order", applied)
		}
	}
	if len(applied) != int(seq) {
		t.Errorf("apply seam saw %d writes, %d were made", len(applied), seq)
	}
	if got := reg.Counter("cluster_fence_rejects_total").Value(); got != 0 {
		t.Errorf("%d fence rejects, want 0", got)
	}
}

// A scripted peer: what it does with each successive request of each
// successive connection.
type reply int

const (
	replyOK       reply = iota // an empty snapshot
	replyStall                 // read the request, never answer
	replyHuge                  // a length beyond the client's bound
	replyBusy                  // the BUSY header
	replyShort                 // a header promising more than is sent, then close
	replyTrailing              // a whole response with stray bytes after it, in one write
)

type scriptedPeer struct {
	sock    string
	accepts atomic.Int32
	// clientClosed receives, for each connection whose script ran out
	// or ended on a bad reply, whether the client was then seen to close.
	clientClosed chan bool
}

func startScriptedPeer(t *testing.T, script [][]reply) *scriptedPeer {
	t.Helper()
	p := &scriptedPeer{sock: filepath.Join(t.TempDir(), "peer.sock"), clientClosed: make(chan bool, len(script))}
	ln, err := net.Listen("unix", p.sock)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var conns []net.Conn
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	okBody := AppendSnapshot(nil, Snapshot{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			i := int(p.accepts.Add(1)) - 1
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			if i >= len(script) {
				conn.Close()
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				var req, hdr [4]byte
				for _, r := range script[i] {
					if _, err := io.ReadFull(conn, req[:]); err != nil {
						return
					}
					switch r {
					case replyOK:
						binary.LittleEndian.PutUint32(hdr[:], uint32(len(okBody)))
						conn.Write(append(hdr[:], okBody...))
						continue
					case replyStall:
					case replyHuge:
						binary.LittleEndian.PutUint32(hdr[:], maxSnapshotBytes+1)
						conn.Write(hdr[:])
					case replyBusy:
						binary.LittleEndian.PutUint32(hdr[:], busyHeader)
						conn.Write(hdr[:])
					case replyShort:
						binary.LittleEndian.PutUint32(hdr[:], 64)
						conn.Write(append(hdr[:], "short"...))
						return
					case replyTrailing:
						binary.LittleEndian.PutUint32(hdr[:], uint32(len(okBody)))
						conn.Write(append(append(hdr[:], okBody...), "stray"...))
					}
					break
				}
				// The client must now hang up rather than send another request.
				conn.SetReadDeadline(time.Now().Add(5 * time.Second))
				_, err := conn.Read(req[:1])
				p.clientClosed <- errors.Is(err, io.EOF)
			}()
		}
	}()
	return p
}

// TestExchangeDiscardsConnectionOnFailure: a reused connection on which
// an exchange fails — the context fired mid-exchange, the response was
// out of bounds, BUSY, cut short, or followed by bytes nobody asked
// for — is closed, never parked; the next call dials.
func TestExchangeDiscardsConnectionOnFailure(t *testing.T) {
	for _, tc := range []struct {
		name    string
		bad     reply
		ctx     func() (context.Context, context.CancelFunc)
		wantErr error
	}{
		{name: "deadline", bad: replyStall, ctx: func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), 50*time.Millisecond)
		}},
		{name: "cancel", bad: replyStall, ctx: func() (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithCancel(context.Background())
			time.AfterFunc(50*time.Millisecond, cancel)
			return ctx, cancel
		}},
		{name: "huge", bad: replyHuge},
		{name: "busy", bad: replyBusy, wantErr: ErrBusy},
		{name: "short", bad: replyShort},
		{name: "trailing", bad: replyTrailing},
	} {
		t.Run(tc.name, func(t *testing.T) {
			leak.Check(t)
			flushIdle()
			p := startScriptedPeer(t, [][]reply{{replyOK, tc.bad}, {replyOK}})
			if _, err := Query("unix", p.sock); err != nil {
				t.Fatalf("first query: %v", err)
			}
			if idleFor(p.sock) != 1 {
				t.Fatal("a clean exchange did not park its connection")
			}
			ctx, cancel := testCtx(t), context.CancelFunc(func() {})
			if tc.ctx != nil {
				ctx, cancel = tc.ctx()
			}
			start := time.Now()
			_, err := QueryContext(ctx, "unix", p.sock)
			cancel()
			if err == nil || (tc.wantErr != nil && !errors.Is(err, tc.wantErr)) {
				t.Fatalf("second query returned %v, want an error (%v)", err, tc.wantErr)
			}
			if elapsed := time.Since(start); elapsed > 2*time.Second {
				t.Errorf("failing exchange took %v", elapsed)
			}
			if n := p.accepts.Load(); n != 1 {
				t.Fatalf("failing exchange ran on connection %d, want the reused first", n)
			}
			if idleFor(p.sock) != 0 {
				t.Error("a failed exchange parked its connection")
			}
			if tc.bad != replyShort && !<-p.clientClosed {
				t.Error("client did not close the failed connection")
			}
			if _, err := Query("unix", p.sock); err != nil {
				t.Fatalf("query after the failure: %v", err)
			}
			if n := p.accepts.Load(); n != 2 {
				t.Errorf("%d connections accepted, want 2: the failed one must not be reused", n)
			}
		})
	}
}

// TestShedWriteReportsBusy is the regression test for fenced writes
// against a shedding server: the server answers BUSY and closes without
// reading, so the request write can fail with a broken pipe while the
// BUSY header already sits in the receive buffer. WriteCap and WriteMem
// used to report the broken pipe, which callers take for an unreachable
// shard, not for back-off. The race needs the server to close before
// the client writes, hence the repeats.
func TestShedWriteReportsBusy(t *testing.T) {
	leak.Check(t)
	flushIdle()
	sock := filepath.Join(t.TempDir(), "rcrd.sock")
	guard := NewFenceGuard((&fenceTestClock{}).Now, func(float64, uint64) error { return nil })
	reg := telemetry.NewRegistry()
	serveAt(t, sock, func(s *Server) {
		s.MaxConns, s.AcceptQueue, s.Shed = 1, 1, true
		s.ReadTimeout = 10 * time.Second
		s.Fence = guard
		s.Instrument(reg)
	})
	// Stall one connection in the handler and one in the queue.
	for i := 0; i < 2; i++ {
		c, err := net.Dial("unix", sock)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		time.Sleep(30 * time.Millisecond) // let it reach its slot
	}
	ctx := testCtx(t)
	w := CapWrite{Fence: 1, Leader: 1, Seq: 1, Lease: time.Minute, HasCap: true, Cap: 80}
	frame := make([]byte, MaxMemFrame) // a long write, to lose the race more often
	for i := 0; i < 200; i++ {
		if _, err := WriteCap(ctx, "unix", sock, w); !errors.Is(err, ErrBusy) {
			t.Fatalf("shed WriteCap %d returned %v, want ErrBusy", i, err)
		}
		if _, err := WriteMem(ctx, "unix", sock, MemWrite{Write: w, Epoch: 1, Frame: frame}); !errors.Is(err, ErrBusy) {
			t.Fatalf("shed WriteMem %d returned %v, want ErrBusy", i, err)
		}
	}
	if got := reg.Counter("rcr_ipc_shed_total").Value(); got != 400 {
		t.Errorf("shed counter = %d, want 400", got)
	}
}

// rawGet sends one GET on conn, a connection the test keeps for itself,
// and reads the response: ErrBusy for the BUSY header.
func rawGet(conn net.Conn) error {
	if _, err := conn.Write([]byte("GET\n")); err != nil {
		return err
	}
	_, err := readSnapshotFrom(conn)
	return err
}

// TestIdleConnYieldsItsWorker: with MaxConns = 1 and the only worker
// held by an idle kept-alive peer, a second client is served at once —
// the idle peer is shed, and nobody waits out ReadTimeout.
func TestIdleConnYieldsItsWorker(t *testing.T) {
	leak.Check(t)
	flushIdle()
	sock := filepath.Join(t.TempDir(), "rcrd.sock")
	srv, _ := serveAt(t, sock, func(s *Server) {
		s.MaxConns = 1
		s.ReadTimeout = 10 * time.Second
	})
	keeper, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer keeper.Close()
	if err := rawGet(keeper); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the first connection to go idle", func() bool { return srv.parked() == 1 })

	start := time.Now()
	if _, err := Query("unix", sock); err != nil {
		t.Fatalf("query behind an idle connection: %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("second client waited %v behind an idle connection (ReadTimeout 10s)", elapsed)
	}
	keeper.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := keeper.Read(make([]byte, 1)); n != 0 || !errors.Is(err, io.EOF) {
		t.Errorf("idle connection read n=%d err=%v, want it closed by the server", n, err)
	}
}

// TestServerCloseDropsIdleConns is TestServerCloseDrains' kept-alive
// twin: with only idle connections open, Close waits out neither
// DrainTimeout nor ReadTimeout.
func TestServerCloseDropsIdleConns(t *testing.T) {
	leak.Check(t)
	flushIdle()
	sock := filepath.Join(t.TempDir(), "rcrd.sock")
	srv, stop := serveAt(t, sock, func(s *Server) {
		s.DrainTimeout = 10 * time.Second
		s.ReadTimeout = 10 * time.Second
	})
	for i := 0; i < 3; i++ {
		if _, err := Query("unix", sock); err != nil {
			t.Fatal(err)
		}
	}
	keeper, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer keeper.Close()
	if err := rawGet(keeper); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "both connections to go idle", func() bool { return srv.parked() == 2 })
	start := time.Now()
	stop()
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("Close took %v with only idle connections open", elapsed)
	}
	// The parked client connection is found dead, not written to.
	if _, err := Query("unix", sock); err == nil {
		t.Error("query against a closed server succeeded")
	}
	if idleFor(sock) != 0 {
		t.Error("dead connection still parked")
	}
}

// TestServerRequestFraming: the server reads requests through a
// per-connection buffered reader, however the peer splits them. A CAP
// request written a byte at a time is answered; a body that stalls past
// ReadTimeout is cut and counted as an error; SUB with bytes behind it
// is refused as a bad request — the publisher's writer takes the bare
// connection, and those bytes would be left behind in the reader.
func TestServerRequestFraming(t *testing.T) {
	capReq := binary.LittleEndian.AppendUint32([]byte("CAP\n"), capWriteLen)
	capReq = AppendCapWrite(capReq, CapWrite{Fence: 1, Leader: 1, Seq: 1, Lease: time.Minute, HasCap: true, Cap: 80})
	for _, tc := range []struct {
		name     string
		readTO   time.Duration
		send     []byte
		bytewise bool
		counter  string // the one counter that must read 1, "" when answered
	}{
		{name: "bytewise", readTO: DefaultIPCTimeout, send: capReq, bytewise: true},
		{name: "stalled body", readTO: 100 * time.Millisecond, send: capReq[:20], counter: "rcr_ipc_errors_total"},
		{name: "sub with stray bytes", readTO: DefaultIPCTimeout, send: []byte("SUB\nGET\n"), counter: "rcr_ipc_bad_requests_total"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			leak.Check(t)
			sock := filepath.Join(t.TempDir(), "rcrd.sock")
			reg := telemetry.NewRegistry()
			srv, _ := serveAt(t, sock, func(s *Server) {
				s.ReadTimeout = tc.readTO
				s.Fence = NewFenceGuard((&fenceTestClock{}).Now, func(float64, uint64) error { return nil })
				s.Pub = NewPublisher(s.bb)
				s.Instrument(reg)
			})
			conn, err := net.Dial("unix", sock)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			for rest := tc.send; len(rest) > 0; {
				n := len(rest)
				if tc.bytewise {
					n = 1
					time.Sleep(time.Millisecond) // each byte its own read
				}
				if _, err := conn.Write(rest[:n]); err != nil {
					t.Fatal(err)
				}
				rest = rest[n:]
			}
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if tc.counter == "" {
				resp := make([]byte, 4+capAckLen)
				if _, err := io.ReadFull(conn, resp); err != nil || binary.LittleEndian.Uint32(resp) != capAckLen {
					t.Fatalf("response %x, err %v, want one CAPA", resp, err)
				}
				if ack, err := DecodeCapAck(resp[4:]); err != nil || ack.Status != CapApplied {
					t.Fatalf("ack %+v, err %v", ack, err)
				}
			} else if resp, err := io.ReadAll(conn); err != nil || len(resp) != 0 {
				t.Errorf("server answered %x (err %v), want it to close", resp, err)
			}
			for _, name := range []string{"rcr_ipc_errors_total", "rcr_ipc_bad_requests_total"} {
				want := uint64(0)
				if name == tc.counter {
					want = 1
				}
				if got := reg.Counter(name).Value(); got != want {
					t.Errorf("%s = %d, want %d", name, got, want)
				}
			}
			if n := srv.Pub.Subscribers(); n != 0 {
				t.Errorf("%d subscribers attached", n)
			}
		})
	}
}

func openDescriptors(t *testing.T) int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no descriptor table to count: %v", err)
	}
	return len(ents)
}

// TestManyEndpointsBoundedDescriptors: a process that talks once to
// each of a thousand endpoints, all gone afterwards, is left holding a
// bounded number of descriptors.
func TestManyEndpointsBoundedDescriptors(t *testing.T) {
	leak.Check(t)
	dir := t.TempDir()
	before := 0
	for i := 0; i <= 1000; i++ {
		sock := filepath.Join(dir, fmt.Sprintf("%d.sock", i))
		_, stop := serveAt(t, sock, func(s *Server) { s.MaxConns = 1 })
		if _, err := Query("unix", sock); err != nil {
			t.Fatalf("endpoint %d: %v", i, err)
		}
		stop()
		if i == 0 { // a first exchange, so that the runtime's own descriptors are open
			flushIdle()
			before = openDescriptors(t)
		}
	}
	idleConns.Lock()
	parked := len(idleConns.list)
	idleConns.Unlock()
	if parked > maxIdleConns {
		t.Errorf("%d connections parked, bound is %d", parked, maxIdleConns)
	}
	if grown := openDescriptors(t) - before; grown > maxIdleConns {
		t.Errorf("descriptors grew by %d, bound is %d", grown, maxIdleConns)
	}
	flushIdle()
	if grown := openDescriptors(t) - before; grown > 0 {
		t.Errorf("%d descriptors outlive the idle set", grown)
	}
}

// TestIdleConnsExpire: entries idle longer than DefaultIPCTimeout are
// dropped on the next access, whatever endpoint it is for.
func TestIdleConnsExpire(t *testing.T) {
	flushIdle()
	a, b := net.Pipe()
	defer b.Close()
	idleConns.Lock()
	idleConns.list = append(idleConns.list, idleConn{"unix", "old", a, nil, time.Now().Add(-DefaultIPCTimeout - time.Second)})
	idleConns.Unlock()
	if conn, _ := takeIdle("unix", "other"); conn != nil {
		t.Fatal("took a connection for an endpoint that has none")
	}
	if idleFor("old") != 0 {
		t.Error("stale entry survived a pool access")
	}
	if _, err := a.Write([]byte{0}); !errors.Is(err, io.ErrClosedPipe) {
		t.Errorf("stale connection not closed: write returned %v", err)
	}
}

// TestExchangeSharedEndpointRace: goroutines sharing one endpoint
// through exchange, all four ops, for the race-enabled CI job.
func TestExchangeSharedEndpointRace(t *testing.T) {
	leak.Check(t)
	flushIdle()
	sock := filepath.Join(t.TempDir(), "rcrd.sock")
	guard := NewFenceGuard((&fenceTestClock{}).Now, func(float64, uint64) error { return nil })
	srv, _ := serveAt(t, sock, func(s *Server) {
		s.Fence = guard
		s.Instrument(telemetry.NewRegistry())
	})
	const workers, rounds = 8, 40
	var seq atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			for i := 0; i < rounds; i++ {
				// Writers race each other's seq, so an ack may say "stale";
				// what must not happen is a transport error.
				w := CapWrite{Fence: 1, Leader: 1, Seq: seq.Add(1), Lease: time.Minute}
				var err error
				switch (g + i) % 4 {
				case 0:
					_, err = QueryContext(ctx, "unix", sock)
				case 1:
					_, err = QueryMetrics(ctx, "unix", sock)
				case 2:
					_, err = WriteCap(ctx, "unix", sock, w)
				case 3:
					_, err = WriteMem(ctx, "unix", sock, MemWrite{Write: w})
				}
				if err != nil {
					t.Errorf("goroutine %d round %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := srv.requests.Value(); got != workers*rounds {
		t.Errorf("server counted %d requests, want %d", got, workers*rounds)
	}
	if got := srv.errors.Value(); got != 0 {
		t.Errorf("server counted %d errors", got)
	}
	if n := idleFor(sock); n < 1 || n > maxIdlePerEndpoint {
		t.Errorf("%d connections parked, want 1..%d", n, maxIdlePerEndpoint)
	}
}

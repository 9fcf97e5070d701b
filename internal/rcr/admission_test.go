package rcr

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/resilience/leak"
	"repro/internal/telemetry"
)

// tempError is a transient net.Error, as the kernel produces for EMFILE /
// ECONNABORTED / accept timeouts.
type tempError struct{}

func (tempError) Error() string   { return "transient accept failure" }
func (tempError) Timeout() bool   { return true }
func (tempError) Temporary() bool { return true }

// flakyListener injects transient Accept errors before delegating to the
// real listener.
type flakyListener struct {
	net.Listener
	mu        sync.Mutex
	transient int // inject this many transient errors first
	fatal     error
}

func (l *flakyListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	if l.transient > 0 {
		l.transient--
		l.mu.Unlock()
		return nil, tempError{}
	}
	fatal := l.fatal
	l.mu.Unlock()
	if fatal != nil {
		return nil, fatal
	}
	return l.Listener.Accept()
}

// TestServeSurvivesTransientAcceptErrors is the regression test for the
// accept loop: a transient net.Error must back off and continue — before
// the fix, any Accept error returned from Serve and killed the daemon.
func TestServeSurvivesTransientAcceptErrors(t *testing.T) {
	leak.Check(t)
	bb, _ := NewBlackboard(1, 1)
	bb.SetSystem(MeterEnergy, 7, 0)
	sock := filepath.Join(t.TempDir(), "rcrd.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	fl := &flakyListener{Listener: ln, transient: 5}
	srv := NewServer(bb, &fakeClock{}, fl)
	reg := telemetry.NewRegistry()
	srv.Instrument(reg)
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v after Close", err)
		}
	})

	// The five injected failures must not have killed Serve.
	snap, err := Query("unix", sock)
	if err != nil {
		t.Fatalf("query after transient accept errors: %v", err)
	}
	if len(snap.System) != 1 || snap.System[0].Value != 7 {
		t.Errorf("query returned %+v", snap.System)
	}
	if got := reg.Counter("rcr_ipc_accept_retries_total").Value(); got != 5 {
		t.Errorf("accept retries counter = %d, want 5", got)
	}
}

// TestServeReturnsOnFatalAcceptError: a non-transient accept error still
// tears Serve down (with the error), as before.
func TestServeReturnsOnFatalAcceptError(t *testing.T) {
	leak.Check(t)
	bb, _ := NewBlackboard(1, 1)
	sock := filepath.Join(t.TempDir(), "rcrd.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	fatal := errors.New("listener torn out")
	srv := NewServer(bb, &fakeClock{}, &flakyListener{Listener: ln, fatal: fatal})
	err = srv.Serve()
	if err == nil || !errors.Is(err, fatal) {
		t.Errorf("Serve returned %v, want wrapped %v", err, fatal)
	}
}

// TestServerShedsWhenSaturated: with one handler slot and a one-deep
// accept queue both occupied by stalled peers, a further client gets the
// cheap BUSY response (ErrBusy) instead of hanging in the backlog.
func TestServerShedsWhenSaturated(t *testing.T) {
	leak.Check(t)
	bb, _ := NewBlackboard(1, 1)
	reg := telemetry.NewRegistry()
	_, sock := startServerWith(t, bb, &fakeClock{}, func(s *Server) {
		s.MaxConns = 1
		s.AcceptQueue = 1
		s.Shed = true
		s.ReadTimeout = 2 * time.Second
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

	if _, err := Query("unix", sock); !errors.Is(err, ErrBusy) {
		t.Errorf("query against saturated server returned %v, want ErrBusy", err)
	}
	if got := reg.Counter("rcr_ipc_shed_total").Value(); got == 0 {
		t.Error("shed counter did not move")
	}
}

// TestServerGracefulDrain: with a DrainTimeout, Close lets an in-flight
// slow request finish and deliver its payload instead of expiring it.
func TestServerGracefulDrain(t *testing.T) {
	leak.Check(t)
	bb, _ := NewBlackboard(1, 1)
	bb.SetSystem(MeterEnergy, 99, 0)
	sock := filepath.Join(t.TempDir(), "rcrd.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(bb, &fakeClock{}, ln)
	srv.DrainTimeout = 5 * time.Second
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()

	// A slow client: connected before Close, it sends its request only
	// after Close has begun draining.
	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	time.Sleep(20 * time.Millisecond) // let the handler claim it

	closeRet := make(chan error, 1)
	go func() { closeRet <- srv.Close() }()
	time.Sleep(50 * time.Millisecond) // Close is now inside its drain window

	if _, err := conn.Write([]byte("GET\n")); err != nil {
		t.Fatalf("late request write: %v", err)
	}
	snap, err := readSnapshotFrom(conn)
	if err != nil {
		t.Fatalf("late request was not served during drain: %v", err)
	}
	if len(snap.System) != 1 || snap.System[0].Value != 99 {
		t.Errorf("drained request returned %+v", snap.System)
	}
	if err := <-closeRet; err != nil {
		t.Errorf("Close: %v", err)
	}
	if err := <-done; err != nil {
		t.Errorf("Serve returned %v after Close", err)
	}
}

// TestServerSurvivesPeerResetMidResponse: a peer that sends GET and
// closes before reading makes the server's response write fail. The
// server counts the failure in rcr_ipc_errors_total, frees its only
// worker and serves the next client.
func TestServerSurvivesPeerResetMidResponse(t *testing.T) {
	leak.Check(t)
	bb, _ := NewBlackboard(1, 1)
	bb.SetSystem(MeterEnergy, 5, 0)
	reg := telemetry.NewRegistry()
	_, sock := startServerWith(t, bb, &fakeClock{}, func(s *Server) {
		s.MaxConns = 1
		s.Instrument(reg)
		// Before Serve: the request waits in the backlog and its peer is
		// gone before the server accepts it, so the reply can only fail.
		peer, err := net.Dial("unix", s.ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer peer.Close()
		if _, err := peer.Write([]byte("GET\n")); err != nil {
			t.Fatal(err)
		}
	})
	snap, err := Query("unix", sock)
	if err != nil {
		t.Fatalf("query after a peer reset mid-response: %v", err)
	}
	if len(snap.System) != 1 || snap.System[0].Value != 5 {
		t.Errorf("query returned %+v", snap.System)
	}
	if got := reg.Counter("rcr_ipc_errors_total").Value(); got != 1 {
		t.Errorf("rcr_ipc_errors_total = %d, want 1 for the failed response write", got)
	}
}

// readSnapshotFrom reads one length-prefixed snapshot response from an
// open connection.
func readSnapshotFrom(conn net.Conn) (Snapshot, error) {
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		return Snapshot{}, err
	}
	var hdr [4]byte
	if _, err := readFullConn(conn, hdr[:]); err != nil {
		return Snapshot{}, err
	}
	n := uint32(hdr[0]) | uint32(hdr[1])<<8 | uint32(hdr[2])<<16 | uint32(hdr[3])<<24
	if n == busyHeader {
		return Snapshot{}, ErrBusy
	}
	if n > maxSnapshotBytes {
		return Snapshot{}, fmt.Errorf("implausible size %d", n)
	}
	buf := make([]byte, n)
	if _, err := readFullConn(conn, buf); err != nil {
		return Snapshot{}, err
	}
	return DecodeSnapshot(buf)
}

func readFullConn(conn net.Conn, buf []byte) (int, error) {
	total := 0
	for total < len(buf) {
		n, err := conn.Read(buf[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// startBenchServer runs a shedding, fenced server over a 2×8 blackboard
// on a real unix socket.
func startBenchServer(b *testing.B) string {
	bb, _ := NewBlackboard(2, 8)
	now := time.Second
	for s := 0; s < 2; s++ {
		bb.SetSocket(s, MeterPower, 70, now)
		bb.SetSocket(s, MeterEnergy, 1000, now)
		bb.SetSocket(s, MeterMemConcurrency, 12, now)
	}
	sock := filepath.Join(b.TempDir(), "rcrd.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		b.Fatal(err)
	}
	clock := &fakeClock{now: now}
	srv := NewServer(bb, clock, ln)
	srv.Shed = true
	srv.Fence = NewFenceGuard(clock.Now, func(float64, uint64) error { return nil })
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	b.Cleanup(func() {
		if err := srv.Close(); err != nil {
			b.Errorf("Close: %v", err)
		}
		<-done
	})
	return sock
}

// BenchmarkIPCQuery measures end-to-end query throughput through the
// admission-control path (accept → queue → worker → encode → reply) —
// the smoke CI runs to catch admission regressions.
func BenchmarkIPCQuery(b *testing.B) {
	sock := startBenchServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := Query("unix", sock); err != nil {
				b.Fatalf("query: %v", err)
			}
		}
	})
}

// BenchmarkWriteCap is one fenced cap write per iteration, client to
// guard and back, the way an aggregator's poll issues them: serially,
// the sequence number advancing.
func BenchmarkWriteCap(b *testing.B) {
	sock := startBenchServer(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := CapWrite{Fence: 1, Leader: 1, Seq: uint64(i + 1), Lease: time.Minute, HasCap: true, Cap: 80}
		if ack, err := WriteCap(ctx, "unix", sock, w); err != nil || ack.Status != CapApplied {
			b.Fatalf("write %d: ack %+v, err %v", i, ack, err)
		}
	}
}

// BenchmarkWriteMem is BenchmarkWriteCap with the membership piggyback:
// every write commits a new epoch of a fleet-sized frame and gets the
// stored record back in its ack.
func BenchmarkWriteMem(b *testing.B) {
	sock := startBenchServer(b)
	ctx := context.Background()
	frame := make([]byte, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := MemWrite{
			Write: CapWrite{Fence: 1, Leader: 1, Seq: uint64(i + 1), Lease: time.Minute, HasCap: true, Cap: 80},
			Epoch: uint64(i + 1),
			Frame: frame,
		}
		if ack, err := WriteMem(ctx, "unix", sock, w); err != nil || ack.Ack.Status != CapApplied {
			b.Fatalf("write %d: ack %+v, err %v", i, ack.Ack, err)
		}
	}
}

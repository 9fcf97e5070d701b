package rcr

import (
	"context"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/rapl"
	"repro/internal/telemetry"
)

// startServerWith starts a server with custom protections applied.
func startServerWith(t *testing.T, bb *Blackboard, clock Clock, tune func(*Server)) (*Server, string) {
	t.Helper()
	sock := filepath.Join(t.TempDir(), "rcrd.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(bb, clock, ln)
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
			t.Errorf("Serve returned %v after Close", err)
		}
	})
	return srv, sock
}

// TestServerDropsStalledClient is the regression test for the unbounded
// handler hang: a client that connects and never sends its request must
// be disconnected once the read deadline expires, and the server must
// keep serving others meanwhile.
func TestServerDropsStalledClient(t *testing.T) {
	bb, _ := NewBlackboard(1, 1)
	bb.SetSystem(MeterEnergy, 9, 0)
	_, sock := startServerWith(t, bb, &fakeClock{}, func(s *Server) {
		s.readTimeout = 100 * time.Millisecond
	})

	stalled, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()

	// A healthy client is served while the stalled one sits there.
	if _, err := Query("unix", sock); err != nil {
		t.Fatalf("query next to stalled client: %v", err)
	}

	// The stalled connection is closed by the server within the
	// deadline (plus slack): a read observes EOF / reset.
	if err := stalled.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	start := time.Now()
	n, rerr := stalled.Read(buf)
	if n != 0 || rerr == nil {
		t.Fatalf("stalled client read n=%d err=%v, want disconnection", n, rerr)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("server took %v to drop the stalled client", elapsed)
	}
}

// TestQueryTimesOutOnDeadServer: a listener that accepts and then goes
// silent must not block Query beyond its deadline.
func TestQueryTimesOutOnDeadServer(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "dead.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- conn // hold the conn open, never respond
	}()
	defer func() {
		select {
		case c := <-accepted:
			c.Close()
		default:
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = QueryContext(ctx, "unix", sock)
	if err == nil {
		t.Fatal("QueryContext succeeded against a silent server")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("QueryContext took %v, want prompt timeout", elapsed)
	}
}

// TestQueryContextCancellation: cancelling mid-exchange unblocks the
// caller even without a deadline.
func TestQueryContextCancellation(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "dead.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		time.Sleep(2 * time.Second)
	}()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	done := make(chan error, 1)
	go func() {
		_, err := QueryContext(ctx, "unix", sock)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("cancelled QueryContext returned no error")
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled QueryContext did not return")
	}
}

// TestServerConnCap: with MaxConns=1 and one stalled connection in
// flight, a second client is only served after the stalled one is
// dropped — and is served, not lost.
func TestServerConnCap(t *testing.T) {
	bb, _ := NewBlackboard(1, 1)
	bb.SetSystem(MeterEnergy, 3, 0)
	_, sock := startServerWith(t, bb, &fakeClock{}, func(s *Server) {
		s.readTimeout = 100 * time.Millisecond
		s.MaxConns = 1
	})
	stalled, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	time.Sleep(20 * time.Millisecond) // let the handler claim the only slot

	s, err := Query("unix", sock)
	if err != nil {
		t.Fatalf("query behind capped stalled conn: %v", err)
	}
	if len(s.System) != 1 || s.System[0].Value != 3 {
		t.Errorf("query returned %+v", s.System)
	}
}

// TestServerCloseDrains: Close must hasten and wait out an in-flight
// stalled handler rather than leaking it.
func TestServerCloseDrains(t *testing.T) {
	bb, _ := NewBlackboard(1, 1)
	sock := filepath.Join(t.TempDir(), "rcrd.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(bb, &fakeClock{}, ln)
	srv.readTimeout = 10 * time.Second // Close must not wait this out
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()

	stalled, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	time.Sleep(20 * time.Millisecond)

	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("Close drained in %v, want immediate deadline expiry", elapsed)
	}
	if err := <-done; err != nil {
		t.Errorf("Serve returned %v after Close", err)
	}
}

func TestServerMetricsOp(t *testing.T) {
	bb, _ := NewBlackboard(1, 1)
	reg := telemetry.NewRegistry()
	bb.Instrument(reg)
	bb.SetSystem(MeterEnergy, 42, 0)
	_, sock := startServerWith(t, bb, &fakeClock{}, func(s *Server) {
		s.Instrument(reg)
	})
	// One snapshot query first so request counters are non-zero.
	if _, err := Query("unix", sock); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	text, err := QueryMetrics(ctx, "unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"rcr_ipc_requests_total", "rcr_blackboard_writes_total 1"} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics text missing %q:\n%s", want, text)
		}
	}
}

func TestQueryMetricsUninstrumented(t *testing.T) {
	bb, _ := NewBlackboard(1, 1)
	_, sock := startServerWith(t, bb, &fakeClock{}, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	text, err := QueryMetrics(ctx, "unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	if text != "" {
		t.Errorf("uninstrumented server returned metrics %q", text)
	}
}

// TestSamplerFirstWindowPublishesPower is the regression test for the
// first-tick gap: with the baseline seeded at StartSampler, the first
// sample window must already publish a power meter, so a consumer
// polling inside the first period never mistakes the node for idle.
func TestSamplerFirstWindowPublishesPower(t *testing.T) {
	m, s := startSimStack(t)
	// Run just past ONE sampling period; the old sampler needed two.
	burn(t, m, []int{0, 1, 2, 3}, 12*time.Millisecond)
	p, ok := s.bb.Socket(0, MeterPower)
	if !ok {
		t.Fatal("no power meter after the first sample window")
	}
	if p.Value <= 0 {
		t.Errorf("first-window power = %v, want positive", p.Value)
	}
	if p.Updated != 10*time.Millisecond {
		t.Errorf("first power sample at %v, want 10ms", p.Updated)
	}
	if sys, ok := s.bb.System(MeterPower); !ok || sys.Value <= 0 {
		t.Errorf("system power after first window = %+v, %v", sys, ok)
	}
}

// TestSamplerInstrumented checks the sampler's counters and that the
// instrumented tick path records its own latency.
func TestSamplerInstrumented(t *testing.T) {
	m, s := startSimStack(t)
	reg := telemetry.NewRegistry()
	s.Instrument(reg)
	s.bb.Instrument(reg)
	burn(t, m, []int{0, 1}, 100*time.Millisecond)
	ticks := reg.Counter("rcr_sampler_ticks_total").Value()
	if ticks < 8 {
		t.Errorf("sampler ticks = %d over 100ms at 10ms, want ~10", ticks)
	}
	if h := reg.Histogram("rcr_sampler_tick_ns"); h.Count() != ticks {
		t.Errorf("tick latency observations = %d, ticks = %d", h.Count(), ticks)
	}
	if w := reg.Counter("rcr_blackboard_writes_total").Value(); w == 0 {
		t.Error("blackboard writes not counted")
	}
}

// TestSamplerPerDomainResync: after a one-domain read fault clears, the
// power meter must be derived over that domain's own stale window, not
// the global tick period (which would overstate power by the number of
// missed windows).
func TestSamplerPerDomainResync(t *testing.T) {
	cfg := machine.M620()
	cfg.VirtualTimeLimit = 5 * time.Minute
	m := newParkedMachine(t, cfg)
	fake := rapl.NewFake(2)
	bb, err := NewBlackboard(cfg.Sockets, cfg.CoresPerSocket)
	if err != nil {
		t.Fatal(err)
	}
	s, err := StartSampler(m, fake, bb)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)

	// Healthy window, then a fault spanning several periods, then
	// recovery with 1 J accumulated across the whole faulty span.
	burn(t, m, []int{0}, 20*time.Millisecond)
	fake.SetError(errBoom)
	burn(t, m, []int{0}, 50*time.Millisecond)
	fake.SetError(nil)
	fake.Add(0, 1) // 1 J over the ~60 ms since the last good sample
	burn(t, m, []int{0}, 12*time.Millisecond)

	p, ok := bb.Socket(0, MeterPower)
	if !ok {
		t.Fatal("no power meter after recovery")
	}
	// Spread over its own ~60-70 ms window the joule reads ~15 W; the old
	// global-window code divided by one 10 ms period and reported ~100 W.
	if p.Value > 50 {
		t.Errorf("recovered power = %.1f W, want the joule spread over the stale window (~15 W)", p.Value)
	}
}

// TestServerConcurrentQueriesRace hammers the server from several
// goroutines for the race-enabled CI job.
func TestServerConcurrentQueriesRace(t *testing.T) {
	bb, _ := NewBlackboard(2, 2)
	bb.SetSystem(MeterEnergy, 1, 0)
	reg := telemetry.NewRegistry()
	bb.Instrument(reg)
	_, sock := startServerWith(t, bb, &fakeClock{}, func(s *Server) { s.Instrument(reg) })
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if i%2 == 0 {
					if _, err := Query("unix", sock); err != nil {
						t.Errorf("query: %v", err)
						return
					}
				} else {
					ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
					if _, err := QueryMetrics(ctx, "unix", sock); err != nil {
						t.Errorf("metrics: %v", err)
						cancel()
						return
					}
					cancel()
				}
			}
		}(i)
	}
	wg.Wait()
}

// benchSampler builds a sampler detached from any machine so the raw
// per-tick cost can be measured without the engine in the loop.
func benchSampler(tb testing.TB, sockets int) (*Sampler, *machine.Snapshot) {
	tb.Helper()
	fake := rapl.NewFake(sockets)
	bb, err := NewBlackboard(sockets, 8)
	if err != nil {
		tb.Fatal(err)
	}
	s := &Sampler{
		reader:     fake,
		bb:         bb,
		lastEnergy: make([]float64, sockets),
		lastTime:   make([]time.Duration, sockets),
		haveBase:   make([]bool, sockets),
	}
	s.met.Store(&samplerMetrics{}) // as StartSampler seeds it
	snap := &machine.Snapshot{Sockets: make([]machine.SocketSnapshot, sockets)}
	for i := range snap.Sockets {
		snap.Sockets[i] = machine.SocketSnapshot{Temperature: 55, OutstandingRefs: 12, Bandwidth: 2e10}
	}
	return s, snap
}

// BenchmarkSamplerTick quantifies the telemetry tax on the hot sampling
// path: "instrumented" must stay within a few percent of "bare"
// (docs/observability.md records the measured numbers).
func BenchmarkSamplerTick(b *testing.B) {
	for _, mode := range []string{"bare", "instrumented"} {
		b.Run(mode, func(b *testing.B) {
			s, snap := benchSampler(b, 2)
			if mode == "instrumented" {
				s.Instrument(telemetry.NewRegistry())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.sample(time.Duration(i+1)*10*time.Millisecond, snap)
			}
		})
	}
}

// TestSamplerTickAllocs: the instrumented sample path must not allocate
// — it is the hottest loop in the stack (every 10 ms of virtual time).
func TestSamplerTickAllocs(t *testing.T) {
	s, snap := benchSampler(t, 2)
	s.Instrument(telemetry.NewRegistry())
	now := 10 * time.Millisecond
	allocs := testing.AllocsPerRun(200, func() {
		s.sample(now, snap)
		now += 10 * time.Millisecond
	})
	if allocs != 0 {
		t.Errorf("instrumented sampler tick allocates: %.1f allocs per run, want 0", allocs)
	}
}

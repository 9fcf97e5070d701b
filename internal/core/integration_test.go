package core

import (
	"math"
	"net"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/compiler"
	"repro/internal/machine"
	"repro/internal/qthreads"
	"repro/internal/rcr"
	"repro/internal/workloads"
	"repro/internal/workloads/lulesh"
)

// TestFullStackIntegration exercises every subsystem in one scenario:
// a LULESH run under the MAESTRO daemon with scheduler tracing and
// history recording, while an RCR snapshot server answers queries over a
// Unix socket — the paper's complete deployment in miniature.
func TestFullStackIntegration(t *testing.T) {
	mcfg := machine.M620()
	mcfg.VirtualTimeLimit = 30 * time.Minute

	rec := qthreads.NewRecorder(0)
	qcfg := qthreads.Config{SpinOnlyIdle: true, Tracer: rec}

	sys, err := New(Options{
		Machine:            mcfg,
		Qthreads:           qcfg,
		AdaptiveThrottling: true,
		RecordHistory:      true,
		Warm:               true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	// Snapshot server on a Unix socket, like cmd/rcrd.
	sock := filepath.Join(t.TempDir(), "rcrd.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	srv := rcr.NewServer(sys.Blackboard(), sys.Machine(), ln)
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()
	defer func() {
		if err := srv.Close(); err != nil {
			t.Error(err)
		}
		if err := <-serveDone; err != nil {
			t.Error(err)
		}
	}()

	wl := lulesh.New()
	target := compiler.Target{Compiler: compiler.GCC, Opt: compiler.O3}
	if err := wl.Prepare(workloads.Params{MachineConfig: mcfg, Target: target, Scale: 0.25}); err != nil {
		t.Fatal(err)
	}

	// Query the daemon from a client goroutine while the run proceeds.
	queried := make(chan rcr.Snapshot, 1)
	go func() {
		deadline := time.Now().Add(20 * time.Second)
		for time.Now().Before(deadline) {
			s, err := rcr.Query("unix", sock)
			if err == nil && len(s.Sockets) == 2 {
				if _, ok := findMeter(s.Sockets[0].Meters, rcr.MeterPower); ok {
					queried <- s
					return
				}
			}
			time.Sleep(10 * time.Millisecond)
		}
		close(queried)
	}()

	rep, err := sys.RunWorkload(wl)
	if err != nil {
		t.Fatal(err)
	}

	// 1. The measured region is sane (quarter-scale lulesh ≈ 12 s).
	if rep.Elapsed.Seconds() < 8 || rep.Elapsed.Seconds() > 16 {
		t.Errorf("elapsed = %v, want ~12 s", rep.Elapsed)
	}
	if math.Abs(float64(rep.AvgPower)) < 100 {
		t.Errorf("power = %v, implausibly low for lulesh", rep.AvgPower)
	}
	// 2. The daemon engaged (lulesh is a throttling target).
	stats, ok := sys.Throttling()
	if !ok || stats.Activations == 0 {
		t.Errorf("daemon stats = %+v, want an activation", stats)
	}
	// 3. The trace saw tasks, steals and throttle events.
	counts := tally(rec)
	if counts[qthreads.EvTaskStart] == 0 || counts[qthreads.EvSteal] == 0 || counts[qthreads.EvThrottleEnter] == 0 {
		t.Errorf("trace counts = %v, want tasks+steals+throttle", counts)
	}
	// 4. The history recorded the power timeline.
	if sys.History().Len() < 100 {
		t.Errorf("history has %d points over a ~12 s run", sys.History().Len())
	}
	// 5. A client saw live meters over the socket.
	snap, ok := <-queried
	if !ok {
		t.Fatal("snapshot client never got an answer")
	}
	if p, ok := findMeter(snap.Sockets[0].Meters, rcr.MeterPower); !ok || p <= 0 {
		t.Errorf("queried snapshot power = %v, %v", p, ok)
	}
}

func findMeter(ms []rcr.MeterValue, name string) (float64, bool) {
	for _, m := range ms {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

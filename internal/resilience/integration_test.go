package resilience

import (
	"context"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/maestro"
	"repro/internal/qthreads"
	"repro/internal/rcr"
	"repro/internal/resilience/leak"
	"repro/internal/telemetry"
)

// TestClientBridgesMaestroThroughOutage is the end-to-end resilience
// scenario: a maestro daemon whose meters arrive over IPC — a
// resilience.Client polls a remote rcrd server and mirrors the
// snapshot's meters into the local blackboard — must degrade to
// fail-safe when the daemon process dies, stay there for the whole
// outage, and recover within the daemon's two recovery polls of the
// restart, the client carrying the mirror from the last answer before
// the outage to the first after it.
//
// The mirror writes meter values with the *remote* Updated stamps (both
// sides share one virtual clock), and a failed query writes nothing, so
// the local meters age honestly under the maestro watchdog. The journal
// must carry fault_detected → failsafe_entered → recovered.
func TestClientBridgesMaestroThroughOutage(t *testing.T) {
	leak.Check(t)
	mcfg := machine.M620()
	mcfg.Sockets = 1
	mcfg.CoresPerSocket = 2
	mcfg.MaxStep = 500 * time.Microsecond
	mcfg.VirtualTimeLimit = 10 * time.Minute
	m, err := machine.New(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	hold := m.Hold() // parked until the churn below runs it
	remote, err := rcr.NewBlackboard(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	local, err := rcr.NewBlackboard(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	qreg := telemetry.NewRegistry()
	rt, err := qthreads.New(m, qthreads.Config{Workers: 2, Telemetry: qreg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)

	// The remote daemon's sampler stand-in: fresh High/High rows on the
	// remote blackboard every 2 ms of virtual time.
	if _, err := m.AddTicker(2*time.Millisecond, func(now time.Duration, _ *machine.Snapshot) {
		remote.SetSocket(0, rcr.MeterPower, 100, now)             // High (default 65)
		remote.SetSocket(0, rcr.MeterMemConcurrency, 0.9*28, now) // High (0.75 × knee)
		remote.SetSocket(0, rcr.MeterMemBandwidth, 1e9, now)
	}); err != nil {
		t.Fatal(err)
	}

	// Churn moves virtual time, and only churn: the runs are chained on
	// the parked clock, so between two of them the tickers cannot race
	// ahead of the host-time mirror below. A run returns as soon as its
	// last task completes, so the mirror paces them — one run (well under
	// a millisecond of virtual time) per mirror poll — and the mirrored
	// meters age only while the server is down, however fast the host.
	paced := make(chan struct{}, 1)
	stopChurn := make(chan struct{})
	var churnWG sync.WaitGroup
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		for {
			select {
			case <-stopChurn:
				return
			case <-paced:
			}
			hold, _ = rt.RunHeld(func(tc *qthreads.TC) {
				tc.ParallelFor(4, 0, func(tc *qthreads.TC, lo, hi int) {
					for i := lo; i < hi; i++ {
						tc.Execute(machine.Work{Ops: 5e5, Bytes: 1e6})
					}
				})
			}, hold)
		}
	}()
	t.Cleanup(func() { close(stopChurn); churnWG.Wait() })

	// The remote rcrd server over a real unix socket.
	sock := filepath.Join(t.TempDir(), "rcrd.sock")
	var srvMu sync.Mutex
	var srv *rcr.Server
	startServer := func() {
		ln, err := net.Listen("unix", sock)
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		s := rcr.NewServer(remote, m, ln)
		srvMu.Lock()
		srv = s
		srvMu.Unlock()
		go s.Serve()
	}
	stopServer := func() {
		srvMu.Lock()
		s := srv
		srvMu.Unlock()
		if s != nil {
			s.Close()
		}
	}
	startServer()
	t.Cleanup(stopServer)

	jnl := telemetry.NewJournal(8192, 1)
	d, err := maestro.Start(rt, local, maestro.Config{
		Period:  5 * time.Millisecond,
		Journal: jnl,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)

	// The self-healing client. Its sweeps do not wait between each
	// other: the mirror's own ticker paces the retries, one query per
	// poll, and so the churn that moves virtual time.
	cli, err := NewClient(ClientConfig{
		Addrs:   []string{sock},
		Clock:   m.Now,
		Journal: jnl,
		Sleep:   func(context.Context, time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}

	// The mirror: a host-time poll loop querying the remote daemon and
	// republishing its socket meters — remote timestamps and all — on
	// the local blackboard the maestro reads.
	stopMirror := make(chan struct{})
	var mirrorWG sync.WaitGroup
	mirrorWG.Add(1)
	go func() {
		defer mirrorWG.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopMirror:
				return
			case <-tick.C:
			}
			select {
			case paced <- struct{}{}:
			default:
			}
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			snap, err := cli.Query(ctx)
			cancel()
			if err != nil {
				continue // degraded: the local meters age and the watchdog sees it
			}
			for s, dom := range snap.Sockets {
				for _, mv := range dom.Meters {
					local.SetSocket(s, mv.Name, mv.Value, mv.Updated)
				}
			}
		}
	}()
	t.Cleanup(func() { close(stopMirror); mirrorWG.Wait() })

	await := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if cond() {
				return
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatalf("condition never held: %s", what)
	}

	// Healthy: meters flow end to end and the daemon engages.
	await("daemon engages on mirrored High/High meters", func() bool { return d.Stats().Activations > 0 })

	// Outage: kill the server. Queries fail, the mirrored meters age
	// past the horizon, and the daemon must ride out at least a 3-poll
	// outage in fail-safe.
	stopServer()
	await("watchdog enters fail-safe", func() bool { return d.Stats().Failsafe })
	await("outage spans three stale polls", func() bool { return d.Stats().FaultsSeen >= 3 })
	if qreg.Gauge("qthreads_throttled").Value() == 1 {
		t.Error("throttle still applied during fail-safe")
	}

	// Restart: the next query answers live, fresh meters flow, and the
	// daemon leaves fail-safe.
	startServer()
	await("daemon recovers", func() bool { return !d.Stats().Failsafe })
	await("daemon re-engages after recovery", func() bool { return d.Stats().Activations > 1 })

	st := d.Stats()
	if st.FailsafeEntries != 1 || st.Recoveries != 1 {
		t.Errorf("stats %+v: want exactly one fail-safe entry and one recovery", st)
	}

	// The journal tells the story in causal order. The fail-safe cycle
	// ran exactly once, so its order is exact.
	var failsafeKinds []string
	for _, e := range jnl.Entries() {
		switch e.Kind {
		case telemetry.KindFaultDetected, telemetry.KindFailsafeEntered, telemetry.KindRecovered:
			failsafeKinds = append(failsafeKinds, e.Kind)
		}
	}
	want := []string{telemetry.KindFaultDetected, telemetry.KindFailsafeEntered, telemetry.KindRecovered}
	if len(failsafeKinds) < len(want) {
		t.Fatalf("failsafe journal records %v, want prefix %v", failsafeKinds, want)
	}
	for i, k := range want {
		if failsafeKinds[i] != k {
			t.Fatalf("failsafe journal records %v, want prefix %v", failsafeKinds, want)
		}
	}
}

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
// scenario of the ISSUE: a maestro daemon whose meters arrive over IPC —
// a resilience.Client polls a remote rcrd server and mirrors the
// snapshot's meters into the local blackboard — must degrade to
// fail-safe when the daemon process dies, stay there for the whole
// outage, and recover within RecoveryPolls of the restart.
//
// The mirror writes meter values with the *remote* Updated stamps (both
// sides share one virtual clock), so the client's last-known-good cache
// can bridge transport blips without ever hiding staleness from the
// maestro watchdog: cached meters keep their old timestamps and age
// honestly. The journal must carry both state machines' records —
// breaker open → half-open → closed, and fault_detected →
// failsafe_entered → recovered.
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
	qcfg := qthreads.DefaultConfig()
	qcfg.Workers = 2
	rt, err := qthreads.New(m, qcfg)
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
		Period:           5 * time.Millisecond,
		StalenessHorizon: 10 * time.Millisecond,
		RecoveryPolls:    2,
		Journal:          jnl,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)

	// The self-healing client: its cache horizon is sized off the
	// daemon's watchdog horizon (Daemon.Horizon) so the two staleness
	// policies agree, and its breaker shares the daemon's journal. One
	// failed mirror poll is one breaker failure, so FailureThreshold 3
	// trips the breaker on the third dead poll — the "3-poll outage".
	cli, err := NewClient(ClientConfig{
		Addrs:            []string{sock},
		Attempts:         1,
		StalenessHorizon: d.Horizon(),
		Clock:            m.Now,
		Journal:          jnl,
		Breaker: BreakerConfig{
			FailureThreshold: 3,
			OpenFor:          20 * time.Millisecond,
			OpenForMax:       80 * time.Millisecond,
		},
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

	// Outage: kill the server. Queries fail, the breaker opens, the
	// mirrored meters age past the horizon, and the daemon must ride out
	// at least a 3-poll outage in fail-safe.
	stopServer()
	await("watchdog enters fail-safe", d.Failsafe)
	await("outage spans three stale polls", func() bool { return d.Stats().FaultsSeen >= 3 })
	await("breaker opens", func() bool { return cli.Breaker().State() != BreakerClosed })
	if rt.Throttled() {
		t.Error("throttle still applied during fail-safe")
	}

	// Restart: the breaker probes half-open, closes, fresh meters flow,
	// and the daemon leaves fail-safe.
	startServer()
	await("daemon recovers", func() bool { return !d.Failsafe() })
	await("breaker closes", func() bool { return cli.Breaker().State() == BreakerClosed })
	await("daemon re-engages after recovery", func() bool { return d.Stats().Activations > 1 })

	st := d.Stats()
	if st.FailsafeEntries != 1 || st.Recoveries != 1 {
		t.Errorf("stats %+v: want exactly one fail-safe entry and one recovery", st)
	}

	// The shared journal tells the whole story: each state machine's
	// records appear in causal order.
	var breakerKinds, failsafeKinds []string
	for _, e := range jnl.Entries() {
		switch e.Kind {
		case telemetry.KindBreakerOpen, telemetry.KindBreakerHalfOpen, telemetry.KindBreakerClosed:
			breakerKinds = append(breakerKinds, e.Kind)
		case telemetry.KindFaultDetected, telemetry.KindFailsafeEntered, telemetry.KindRecovered:
			failsafeKinds = append(failsafeKinds, e.Kind)
		}
	}
	// The breaker may cycle open → half-open → open several times while
	// the outage lasts (each failed probe re-opens with a doubled
	// cooldown), so assert the endpoints and the probe, not one exact
	// path: it opened first, probed at least once, and ended closed.
	if len(breakerKinds) < 3 || breakerKinds[0] != telemetry.KindBreakerOpen {
		t.Fatalf("breaker journal records %v, want to start with %q", breakerKinds, telemetry.KindBreakerOpen)
	}
	if last := breakerKinds[len(breakerKinds)-1]; last != telemetry.KindBreakerClosed {
		t.Fatalf("breaker journal records %v, want to end with %q", breakerKinds, telemetry.KindBreakerClosed)
	}
	sawHalfOpen := false
	for _, k := range breakerKinds {
		if k == telemetry.KindBreakerHalfOpen {
			sawHalfOpen = true
		}
	}
	if !sawHalfOpen {
		t.Fatalf("breaker journal records %v never probed half-open", breakerKinds)
	}
	// The fail-safe cycle ran exactly once, so its order is exact.
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

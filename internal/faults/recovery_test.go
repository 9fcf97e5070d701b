// Recovery property tests live in faults_test, the external test package.
package faults_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/maestro"
	"repro/internal/qthreads"
	"repro/internal/rcr"
	"repro/internal/telemetry"
)

// eventually polls cond until it holds or the deadline passes.
func eventually(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("condition never held: %s", what)
}

// TestQthreadsFailsafeRecovery: when the MAESTRO daemon's staleness watchdog fires, the qthreads
// runtime's throttle flag must drop to unthrottled even when every
// normal actuation is being dropped by an injected fault (the release
// takes the direct lock-free bypass), and normal operation must resume
// once fresh data returns. Worker churn runs throughout.
func TestQthreadsFailsafeRecovery(t *testing.T) {
	mcfg := machine.M620()
	mcfg.Sockets = 1
	mcfg.CoresPerSocket = 2
	mcfg.MaxStep = 500 * time.Microsecond
	m, err := machine.New(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	hold := m.Hold() // parked until the churn below runs it
	bb, err := rcr.NewBlackboard(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	rt, err := qthreads.New(m, qthreads.Config{Workers: 2, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	throttled := func() bool { return reg.Gauge("qthreads_throttled").Value() == 1 }

	// Meter feeder: publishes fresh High/High rows while healthy, stops
	// publishing (meters age past the horizon) while faulty.
	var healthy sync.Mutex
	isHealthy := true
	setHealthy := func(v bool) { healthy.Lock(); isHealthy = v; healthy.Unlock() }
	if _, err := m.AddTicker(2*time.Millisecond, func(now time.Duration, _ *machine.Snapshot) {
		healthy.Lock()
		ok := isHealthy
		healthy.Unlock()
		if !ok {
			return
		}
		bb.SetSocket(0, rcr.MeterPower, 100, now)             // High (default threshold 65)
		bb.SetSocket(0, rcr.MeterMemConcurrency, 0.9*28, now) // High (0.75 × knee)
		bb.SetSocket(0, rcr.MeterMemBandwidth, 1e9, now)
	}); err != nil {
		t.Fatal(err)
	}

	daemon, err := maestro.Start(rt, bb, maestro.Config{
		Period: 5 * time.Millisecond,
		// Worst-case actuation fault: every normal release is dropped.
		// Only the fail-safe bypass can open the runtime back up.
		ActuationHook: func(now time.Duration, engage bool) (time.Duration, bool) {
			return 0, !engage
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer daemon.Stop()

	// Concurrent churn on the runtime while the daemon flips state. The
	// runs are chained on the parked clock, so virtual time moves only
	// while they execute.
	stopChurn := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stopChurn:
				return
			default:
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
	defer func() { close(stopChurn); wg.Wait() }()

	for round := 0; round < 3; round++ {
		eventually(t, 10*time.Second, "daemon engages throttling on High/High", func() bool {
			return throttled()
		})
		setHealthy(false)
		eventually(t, 10*time.Second, "watchdog fires and throttle releases through the bypass", func() bool {
			return daemon.Stats().Failsafe && !throttled()
		})
		setHealthy(true)
		eventually(t, 10*time.Second, "daemon recovers once data is fresh again", func() bool {
			return !daemon.Stats().Failsafe
		})
	}
	st := daemon.Stats()
	if st.FailsafeEntries < 3 || st.Recoveries < 3 {
		t.Errorf("daemon stats %+v: want >= 3 fail-safe entries and recoveries", st)
	}
}

package machine

import (
	"errors"
	"testing"
	"time"

	"repro/internal/units"
)

func TestEnrollAfterStop(t *testing.T) {
	m, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.Stop()
	if _, err := m.Enroll(0); !errors.Is(err, ErrStopped) {
		t.Errorf("Enroll after Stop = %v, want ErrStopped", err)
	}
}

func TestSleepZeroAndNegative(t *testing.T) {
	m := newTestMachine(t)
	runOn(t, m, map[int]func(*CoreCtx){
		0: func(c *CoreCtx) {
			before := m.Now()
			c.Sleep(0)
			c.Sleep(-time.Second)
			if m.Now() != before {
				t.Error("zero/negative Sleep advanced time")
			}
		},
	})
}

func TestSpinForZeroDeadline(t *testing.T) {
	m := newTestMachine(t)
	runOn(t, m, map[int]func(*CoreCtx){
		0: func(c *CoreCtx) {
			if c.SpinFor(func() bool { return false }, 0) {
				t.Error("SpinFor(0) reported condition met")
			}
			if !c.SpinFor(func() bool { return true }, 0) {
				t.Error("SpinFor with true condition reported unmet")
			}
		},
	})
}

func TestDoubleReleasePanics(t *testing.T) {
	m := newTestMachine(t)
	ctx, err := m.Enroll(0)
	if err != nil {
		t.Fatal(err)
	}
	ctx.Release()
	// A second Release finds the core unowned and must be a no-op (the
	// CoreCtx documents single ownership; unowned short-circuits).
	ctx.Release()
}

func TestConcurrentCoreCtxMisusePanics(t *testing.T) {
	m := newTestMachine(t)
	ctx, err := m.Enroll(0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		// Machine teardown by test cleanup; the core is stuck in Busy, so
		// Stop aborts it.
	}()
	started := make(chan struct{})
	go func() {
		close(started)
		defer func() { recover() }() // the abort at Stop / watchdog
		ctx.Compute(2.7e9 * 3600)    // park the core in Busy far past the watchdog
	}()
	<-started
	// Wait until the engine has demonstrably started the charge.
	for m.Now() == 0 {
		time.Sleep(time.Millisecond)
	}
	panicked := make(chan bool, 1)
	go func() {
		defer func() { panicked <- recover() != nil }()
		ctx.Compute(1) // second goroutine using the same ctx
	}()
	select {
	case ok := <-panicked:
		if !ok {
			t.Error("concurrent CoreCtx use did not panic")
		}
	case <-time.After(10 * time.Second):
		t.Error("misuse check timed out")
	}
}

func TestRemoveTickerWhileRunning(t *testing.T) {
	m := newParkedMachine(t)
	fired := 0
	var id int
	var err error
	id, err = m.AddTicker(5*time.Millisecond, func(now time.Duration, s *Snapshot) {
		fired++
	})
	if err != nil {
		t.Fatal(err)
	}
	runOn(t, m, map[int]func(*CoreCtx){
		0: func(c *CoreCtx) { c.Sleep(20 * time.Millisecond) },
	})
	m.RemoveTicker(id)
	before := fired
	runOn(t, m, map[int]func(*CoreCtx){
		0: func(c *CoreCtx) { c.Sleep(20 * time.Millisecond) },
	})
	if fired != before {
		t.Errorf("ticker fired %d more times after removal", fired-before)
	}
	m.RemoveTicker(99) // unknown id is a no-op
}

func TestSocketEnergyOutOfRange(t *testing.T) {
	m := newTestMachine(t)
	if got := m.SocketEnergy(-1); got != 0 {
		t.Errorf("SocketEnergy(-1) = %v", got)
	}
	if got := m.SocketEnergy(9); got != 0 {
		t.Errorf("SocketEnergy(9) = %v", got)
	}
	if got := m.Temperature(-1); got != 0 {
		t.Errorf("Temperature(-1) = %v", got)
	}
	if err := m.SetTemperature(5, 50); err == nil {
		t.Error("SetTemperature(5) succeeded")
	}
}

func TestEnergyCounterWrapMidRun(t *testing.T) {
	// Preload both package counters within a few joules of the wrap and
	// run long enough to cross it: total accounting must stay exact.
	m := newTestMachine(t)
	headroom := units.Joules(3)
	near := units.RAPLCounterMod - uint64(headroom/units.RAPLUnit)
	for s := 0; s < 2; s++ {
		if err := m.MSR().WritePackage(s, 0x611, near); err != nil {
			t.Fatal(err)
		}
	}
	before := [2]uint32{m.MSR().PackageEnergyCounter(0), m.MSR().PackageEnergyCounter(1)}
	exactBefore := m.TotalEnergy()
	bodies := map[int]func(*CoreCtx){}
	for i := 0; i < 8; i++ {
		bodies[i] = func(c *CoreCtx) { c.Compute(2.7e8) } // ~7.5 J total
	}
	runOn(t, m, bodies)
	var counted units.Joules
	for s := 0; s < 2; s++ {
		counted += units.RAPLDelta(before[s], m.MSR().PackageEnergyCounter(s))
	}
	exact := m.TotalEnergy() - exactBefore
	if d := float64(counted - exact); d > 0.01 || d < -0.01 {
		t.Errorf("wrap-crossing delta: counters %v vs exact %v", counted, exact)
	}
}

package machine

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/units"
)

// testConfig is an M620 with a watchdog so broken tests fail instead of
// hanging.
func testConfig() Config {
	cfg := M620()
	cfg.VirtualTimeLimit = 5 * time.Minute
	return cfg
}

// nodeEnergy is the exact cumulative energy of every socket, read as
// programs read it.
func nodeEnergy(m *Machine) units.Joules {
	var e units.Joules
	for s := 0; s < m.Config().Sockets; s++ {
		e += m.SocketEnergy(s)
	}
	return e
}

// locked reads engine state under the machine lock the engine writes it
// under.
func locked[T any](m *Machine, read func() T) T {
	m.mu.Lock()
	defer m.mu.Unlock()
	return read()
}

// enrolled counts the cores an owner holds.
func enrolled(m *Machine) int {
	return locked(m, func() int {
		n := 0
		for _, c := range m.cores {
			if c.state != coreUnowned {
				n++
			}
		}
		return n
	})
}

func newTestMachine(t *testing.T) *Machine {
	t.Helper()
	m, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	return m
}

// parked holds the clocks of machines from newParkedMachine between
// runOn calls. A clock that only tickers drive runs as fast as the host
// steps it, so a test that reads what its tickers saw parks it.
var parked sync.Map // *Machine → release func()

// newParkedMachine is newTestMachine with the clock parked at zero: it
// moves only inside runOn.
func newParkedMachine(t *testing.T) *Machine {
	t.Helper()
	m := newTestMachine(t)
	parked.Store(m, m.Hold())
	return m
}

// runOn enrolls a goroutine on each listed core, runs its body, releases,
// and waits for all to finish (with a host-time timeout). The bodies
// start on one instant, however the host schedules the enrolments: the
// clock is held until every goroutine is started. On a machine from
// newParkedMachine it then runs for exactly as long as the bodies take:
// the last one to finish parks it again before its core goes.
func runOn(t *testing.T, m *Machine, bodies map[int]func(*CoreCtx)) {
	t.Helper()
	r, held := parked.LoadAndDelete(m)
	release, _ := r.(func())
	if !held {
		release = m.Hold()
	}
	var left atomic.Int32
	left.Store(int32(len(bodies)))
	var wg sync.WaitGroup
	for id, body := range bodies {
		ctx, err := m.Enroll(id)
		if err != nil {
			t.Fatalf("Enroll(%d): %v", id, err)
		}
		Charge(t, &wg, ctx, func(c *CoreCtx) {
			body(c)
			if held && left.Add(-1) == 0 {
				parked.Store(m, m.Hold())
			}
		})
	}
	release()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("workers did not finish within host timeout")
	}
}

func TestComputeTiming(t *testing.T) {
	m := newTestMachine(t)
	var elapsed time.Duration
	runOn(t, m, map[int]func(*CoreCtx){
		0: func(c *CoreCtx) {
			start := m.Now()
			c.Compute(2.7e9) // one second of cycles at 2.7 GHz
			elapsed = m.Now() - start
		},
	})
	if math.Abs(elapsed.Seconds()-1) > 0.01 {
		t.Errorf("Compute(2.7e9 cycles) took %v, want ~1s", elapsed)
	}
}

func TestComputeEnergy(t *testing.T) {
	m := newTestMachine(t)
	runOn(t, m, map[int]func(*CoreCtx){
		0: func(c *CoreCtx) { c.Compute(2.7e9) },
	})
	cfg := m.Config()
	// Expected: socket 0 with 1 active + 7 unowned, socket 1 all unowned,
	// no bandwidth, modest leakage.
	want := float64(cfg.Power.PredictSocketPower(1, 1, 0, 0, 0, 7, 0) +
		cfg.Power.PredictSocketPower(0, 0, 0, 0, 0, 8, 0))
	got := float64(nodeEnergy(m))
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("energy = %.1f J, want ~%.1f J", got, want)
	}
}

func TestDutyCycleSlowsCompute(t *testing.T) {
	m := newTestMachine(t)
	var full, throttled time.Duration
	runOn(t, m, map[int]func(*CoreCtx){
		0: func(c *CoreCtx) {
			start := m.Now()
			c.Compute(2.7e8)
			full = m.Now() - start

			c.SetDutyLevel(1) // 1/32 of nominal
			start = m.Now()
			c.Compute(2.7e8)
			throttled = m.Now() - start
			c.FullDuty()
		},
	})
	ratio := throttled.Seconds() / full.Seconds()
	if math.Abs(ratio-32) > 0.5 {
		t.Errorf("duty 1/32 slowdown = %.2fx, want 32x", ratio)
	}
}

func TestDutyCycleReflectedInMSR(t *testing.T) {
	m := newTestMachine(t)
	runOn(t, m, map[int]func(*CoreCtx){
		3: func(c *CoreCtx) {
			c.SetDutyLevel(8)
			d, err := m.MSR().CoreDuty(3)
			if err != nil {
				t.Error(err)
			}
			if math.Abs(d-0.25) > 1e-12 {
				t.Errorf("MSR duty = %g, want 0.25", d)
			}
			c.m.mu.Lock()
			duty := c.c.duty
			c.m.mu.Unlock()
			if math.Abs(duty-0.25) > 1e-12 {
				t.Errorf("core duty = %g, want 0.25", duty)
			}
		},
	})
	// Release restores full speed.
	d, err := m.MSR().CoreDuty(3)
	if err != nil {
		t.Fatal(err)
	}
	if d != 1 {
		t.Errorf("duty after release = %g, want 1", d)
	}
}

func TestStreamBandwidthSinglCore(t *testing.T) {
	m := newTestMachine(t)
	cap := float64(m.Config().Mem.MaxCoreBandwidth())
	var elapsed time.Duration
	runOn(t, m, map[int]func(*CoreCtx){
		0: func(c *CoreCtx) {
			start := m.Now()
			c.Execute(Work{Bytes: cap}) // one second at the per-core cap
			elapsed = m.Now() - start
		},
	})
	if math.Abs(elapsed.Seconds()-1) > 0.02 {
		t.Errorf("Stream at core cap took %v, want ~1s", elapsed)
	}
}

func TestStreamContentionSlowsCores(t *testing.T) {
	m := newTestMachine(t)
	mem := m.Config().Mem
	bytes := float64(mem.MaxCoreBandwidth()) // 1s solo
	perCore := make([]time.Duration, 4)
	bodies := map[int]func(*CoreCtx){}
	for i := 0; i < 4; i++ {
		i := i
		bodies[i] = func(c *CoreCtx) {
			start := m.Now()
			c.Execute(Work{Bytes: bytes})
			perCore[i] = m.Now() - start
		}
	}
	runOn(t, m, bodies)
	// 4 cores × 10 refs = 40 refs > knee 28: aggregate is capped around
	// the (slightly degraded) plateau, so each core takes ~4×cap/C_eff.
	ceff := mem.EffectiveCapacity(4 * float64(mem.MaxRefsPerCore))
	want := 4 * bytes / ceff
	for i, d := range perCore {
		if math.Abs(d.Seconds()-want)/want > 0.1 {
			t.Errorf("core %d stream took %v, want ~%.2fs", i, d, want)
		}
	}
}

func TestSocketsIsolatedBandwidth(t *testing.T) {
	m := newTestMachine(t)
	mem := m.Config().Mem
	bytes := float64(mem.MaxCoreBandwidth())
	var s0, s1 time.Duration
	runOn(t, m, map[int]func(*CoreCtx){
		0: func(c *CoreCtx) { // socket 0
			start := m.Now()
			c.Execute(Work{Bytes: bytes})
			s0 = m.Now() - start
		},
		8: func(c *CoreCtx) { // socket 1
			start := m.Now()
			c.Execute(Work{Bytes: bytes})
			s1 = m.Now() - start
		},
	})
	// Different sockets do not contend: both run at full core bandwidth.
	for _, d := range []time.Duration{s0, s1} {
		if math.Abs(d.Seconds()-1) > 0.02 {
			t.Errorf("cross-socket stream took %v, want ~1s", d)
		}
	}
}

func TestMixedWorkActiveFraction(t *testing.T) {
	m := newTestMachine(t)
	mem := m.Config().Mem
	// Demand exactly twice the per-core achievable bandwidth: the core
	// should run at ~50% activity and take ~2x the compute time.
	ops := 2.7e8 // 100 ms at full speed
	coreBW := float64(mem.MaxCoreBandwidth())
	bytesPerSec := 2 * coreBW
	bytes := bytesPerSec * (ops / 2.7e9)
	var elapsed time.Duration
	runOn(t, m, map[int]func(*CoreCtx){
		0: func(c *CoreCtx) {
			start := m.Now()
			c.Execute(Work{Ops: ops, Bytes: bytes})
			elapsed = m.Now() - start
		},
	})
	if math.Abs(elapsed.Seconds()-0.2) > 0.01 {
		t.Errorf("memory-throttled mixed work took %v, want ~200ms", elapsed)
	}
}

func TestAtomicContention(t *testing.T) {
	m := newTestMachine(t)
	line := m.NewLine(100, 0.5, 0.85)
	const n = 2.7e5 // 100 cycles each -> 10 ms solo
	var solo time.Duration
	runOn(t, m, map[int]func(*CoreCtx){
		0: func(c *CoreCtx) {
			start := m.Now()
			c.Atomic(line, n)
			solo = m.Now() - start
		},
	})
	if math.Abs(solo.Seconds()-0.01) > 0.001 {
		t.Fatalf("solo atomics took %v, want ~10ms", solo)
	}

	// Two contenders: serialized (×2) and ping-pong (×1.5) => ~3x each.
	times := make([]time.Duration, 2)
	bodies := map[int]func(*CoreCtx){}
	for i := 0; i < 2; i++ {
		i := i
		bodies[i] = func(c *CoreCtx) {
			start := m.Now()
			c.Atomic(line, n)
			times[i] = m.Now() - start
		}
	}
	runOn(t, m, bodies)
	for i, d := range times {
		ratio := d.Seconds() / solo.Seconds()
		if ratio < 2.5 || ratio > 3.5 {
			t.Errorf("contender %d slowdown = %.2fx, want ~3x", i, ratio)
		}
	}
}

func TestSleepAdvancesTime(t *testing.T) {
	m := newTestMachine(t)
	var elapsed time.Duration
	runOn(t, m, map[int]func(*CoreCtx){
		0: func(c *CoreCtx) {
			start := m.Now()
			c.Sleep(50 * time.Millisecond)
			elapsed = m.Now() - start
		},
	})
	if elapsed < 50*time.Millisecond || elapsed > 55*time.Millisecond {
		t.Errorf("Sleep(50ms) advanced %v", elapsed)
	}
}

func TestSpinForDeadline(t *testing.T) {
	m := newTestMachine(t)
	var met bool
	var elapsed time.Duration
	runOn(t, m, map[int]func(*CoreCtx){
		0: func(c *CoreCtx) {
			start := m.Now()
			met = c.SpinFor(func() bool { return false }, 20*time.Millisecond)
			elapsed = m.Now() - start
		},
	})
	if met {
		t.Error("SpinFor reported condition met, want deadline expiry")
	}
	if elapsed < 20*time.Millisecond || elapsed > 25*time.Millisecond {
		t.Errorf("SpinFor(20ms) took %v", elapsed)
	}
}

func TestSpinUntilWhenQuiescent(t *testing.T) {
	m := newTestMachine(t)
	var flag atomic.Bool
	started := make(chan struct{})
	var woke atomic.Bool
	go func() {
		<-started
		m.WhenQuiescent(func() { flag.Store(true) })
	}()
	runOn(t, m, map[int]func(*CoreCtx){
		0: func(c *CoreCtx) {
			close(started)
			c.SpinUntil(flag.Load)
			woke.Store(true)
		},
	})
	if !woke.Load() {
		t.Error("SpinUntil never woke after WhenQuiescent set its flag")
	}
}

func TestSpinUntilFastPath(t *testing.T) {
	m := newTestMachine(t)
	runOn(t, m, map[int]func(*CoreCtx){
		0: func(c *CoreCtx) {
			before := m.Now()
			c.SpinUntil(func() bool { return true })
			if m.Now() != before {
				t.Error("already-true SpinUntil advanced virtual time")
			}
		},
	})
}

func TestIdleUntilDrawsLessThanSpin(t *testing.T) {
	// Two identical waits, one spinning and one parked; a busy core on the
	// other socket drives time forward. The spinner must cost more energy.
	energyOf := func(spin bool) units.Joules {
		m := newTestMachine(t)
		defer m.Stop()
		var done atomic.Bool
		runOn(t, m, map[int]func(*CoreCtx){
			8: func(c *CoreCtx) { // socket 1: drives time for 100 ms
				c.Compute(2.7e8)
				done.Store(true) // seen when this core releases
			},
			0: func(c *CoreCtx) { // socket 0: waits
				if spin {
					c.SpinUntil(done.Load)
				} else {
					c.IdleUntil(done.Load)
				}
			},
		})
		return m.SocketEnergy(0)
	}
	spinE := float64(energyOf(true))
	idleE := float64(energyOf(false))
	if spinE <= idleE {
		t.Errorf("spin energy %.2f J <= idle energy %.2f J", spinE, idleE)
	}
	// Rough magnitude: ~5.6 W delta on one core over 100 ms ≈ 0.56 J.
	delta := spinE - idleE
	if delta < 0.3 || delta > 0.9 {
		t.Errorf("spin-idle delta = %.2f J, want ~0.56 J", delta)
	}
}

func TestTickerFires(t *testing.T) {
	m := newParkedMachine(t)
	var fires atomic.Int64
	var lastNow atomic.Int64
	id, err := m.AddTicker(10*time.Millisecond, func(now time.Duration, s *Snapshot) {
		fires.Add(1)
		lastNow.Store(int64(now))
		if len(s.Sockets) != 2 {
			t.Error("snapshot missing sockets")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	runOn(t, m, map[int]func(*CoreCtx){
		0: func(c *CoreCtx) { c.Sleep(105 * time.Millisecond) },
	})
	m.RemoveTicker(id)
	if n := fires.Load(); n < 10 || n > 11 {
		t.Errorf("ticker fired %d times over 105 ms, want 10", n)
	}
	if lastNow.Load() == 0 {
		t.Error("ticker never saw a non-zero time")
	}
}

func TestTickerValidation(t *testing.T) {
	m := newTestMachine(t)
	if _, err := m.AddTicker(0, func(time.Duration, *Snapshot) {}); err == nil {
		t.Error("AddTicker(0) succeeded, want error")
	}
	if _, err := m.AddTicker(time.Second, nil); err == nil {
		t.Error("AddTicker(nil) succeeded, want error")
	}
}

func TestEnrollErrors(t *testing.T) {
	m := newTestMachine(t)
	if _, err := m.Enroll(-1); err == nil {
		t.Error("Enroll(-1) succeeded")
	}
	if _, err := m.Enroll(16); err == nil {
		t.Error("Enroll(16) succeeded")
	}
	ctx, err := m.Enroll(5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Enroll(5); err == nil {
		t.Error("double Enroll succeeded")
	}
	if got := enrolled(m); got != 1 {
		t.Errorf("enrolled cores = %d, want 1", got)
	}
	ctx.Release()
	if got := enrolled(m); got != 0 {
		t.Errorf("enrolled cores after release = %d, want 0", got)
	}
	// Re-enroll after release works.
	ctx, err = m.Enroll(5)
	if err != nil {
		t.Fatal(err)
	}
	ctx.Release()
}

func TestWatchdogAborts(t *testing.T) {
	cfg := testConfig()
	cfg.VirtualTimeLimit = 30 * time.Millisecond
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	aborted := make(chan error, 1)
	ctx, err := m.Enroll(0)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		defer func() {
			if r := recover(); r != nil {
				if a, ok := r.(Abort); ok {
					aborted <- a.Err
					return
				}
				panic(r)
			}
			aborted <- nil
		}()
		ctx.Sleep(time.Second) // exceeds the watchdog
	}()
	select {
	case cause := <-aborted:
		if cause == nil {
			t.Fatal("Sleep returned normally, want watchdog abort")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("watchdog never fired")
	}
	if m.Err() == nil {
		t.Error("machine Err() = nil after watchdog")
	}
}

func TestStopAbortsBlockedWorkers(t *testing.T) {
	m, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := m.Enroll(0)
	if err != nil {
		t.Fatal(err)
	}
	aborted := make(chan struct{})
	go func() {
		defer func() {
			if r := recover(); r != nil {
				if a, ok := r.(Abort); ok && errors.Is(a.Err, ErrStopped) {
					close(aborted)
					return
				}
				panic(r)
			}
		}()
		ctx.SpinUntil(func() bool { return false }) // blocks forever
	}()
	// Give the worker a moment to block, then stop.
	time.Sleep(50 * time.Millisecond)
	m.Stop()
	select {
	case <-aborted:
	case <-time.After(10 * time.Second):
		t.Fatal("blocked worker not aborted by Stop")
	}
	// Err stays nil for a plain Stop.
	if m.Err() != nil {
		t.Errorf("Err after Stop = %v, want nil", m.Err())
	}
	// Stop is idempotent.
	m.Stop()
}

// counterJoules is the energy a 32-bit RAPL counter booked moving from
// before to after; the unsigned subtraction wraps at most once, as a
// reader that polls often enough does.
func counterJoules(before, after uint32) units.Joules {
	return units.Joules(float64(after-before) * float64(units.RAPLUnit))
}

func TestEnergyCounterMatchesExactEnergy(t *testing.T) {
	m := newTestMachine(t)
	before0 := m.MSR().PackageEnergyCounter(0)
	before1 := m.MSR().PackageEnergyCounter(1)
	runOn(t, m, map[int]func(*CoreCtx){
		0: func(c *CoreCtx) { c.Compute(2.7e9) },
	})
	counted := counterJoules(before0, m.MSR().PackageEnergyCounter(0)) +
		counterJoules(before1, m.MSR().PackageEnergyCounter(1))
	exact := nodeEnergy(m)
	if math.Abs(float64(counted-exact)) > 0.001*float64(exact) {
		t.Errorf("RAPL counters say %v, exact accounting says %v", counted, exact)
	}
}

func TestTemperatureRisesUnderLoad(t *testing.T) {
	m := newTestMachine(t)
	t0 := locked(m, func() units.Celsius { return m.temp[0] })
	bodies := map[int]func(*CoreCtx){}
	for i := 0; i < 8; i++ {
		bodies[i] = func(c *CoreCtx) { c.Compute(2.7e9 * 20) } // 20 s full load
	}
	runOn(t, m, bodies)
	t1 := locked(m, func() units.Celsius { return m.temp[0] })
	if t1 <= t0+5 {
		t.Errorf("socket 0 temperature %v -> %v, want a clear rise", t0, t1)
	}
}

func TestWarmAllSetsTemperature(t *testing.T) {
	m := newTestMachine(t)
	m.WarmAll(70)
	for s := 0; s < 2; s++ {
		if got := locked(m, func() units.Celsius { return m.temp[s] }); got != 70 {
			t.Errorf("socket %d temperature = %v, want 70", s, got)
		}
	}
}

func TestHotMachineUsesMoreEnergy(t *testing.T) {
	// Paper §II-C footnote 2: the first (cold) run uses ~3% less energy.
	run := func(temp units.Celsius) units.Joules {
		m := newTestMachine(t)
		defer m.Stop()
		m.WarmAll(temp)
		runOn(t, m, map[int]func(*CoreCtx){
			0: func(c *CoreCtx) { c.Compute(2.7e9) },
		})
		return nodeEnergy(m)
	}
	cold := float64(run(40))
	hot := float64(run(75))
	rel := (hot - cold) / hot
	if rel < 0.01 || rel > 0.08 {
		t.Errorf("hot-vs-cold energy delta = %.1f%%, want a few percent", rel*100)
	}
}

func TestSnapshotDuringLoad(t *testing.T) {
	m := newParkedMachine(t)
	var snap Snapshot
	if _, err := m.AddTicker(10*time.Millisecond, func(now time.Duration, s *Snapshot) {
		snap = *s
	}); err != nil {
		t.Fatal(err)
	}
	bodies := map[int]func(*CoreCtx){}
	for i := 0; i < 8; i++ {
		bodies[i] = func(c *CoreCtx) { c.Compute(2.7e8) }
	}
	runOn(t, m, bodies)
	if len(snap.Sockets) != 2 {
		t.Fatal("no snapshot captured")
	}
	p := float64(snap.Sockets[0].Power)
	want := float64(m.Config().Power.PredictSocketPower(8, 1, 0, 0, 0, 0, 0))
	if math.Abs(p-want)/want > 0.05 {
		t.Errorf("socket 0 power under full load = %.1f W, want ~%.1f W", p, want)
	}
	if snap.Sockets[1].Power >= snap.Sockets[0].Power {
		t.Error("idle socket draws at least as much as loaded socket")
	}
}

func TestExecuteZeroWork(t *testing.T) {
	m := newTestMachine(t)
	runOn(t, m, map[int]func(*CoreCtx){
		0: func(c *CoreCtx) {
			before := m.Now()
			c.Execute(Work{})
			c.Compute(0)
			c.Execute(Work{Bytes: -5})
			c.Atomic(m.NewLine(10, 0, 0.85), 0)
			if m.Now() != before {
				t.Error("zero work advanced time")
			}
		},
	})
}

func TestConfigValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Sockets = 0 },
		func(c *Config) { c.CoresPerSocket = -1 },
		func(c *Config) { c.BaseFreq = 0 },
		func(c *Config) { c.MaxStep = 0 },
		func(c *Config) { c.Mem.BandwidthPerSocket = 0 },
		func(c *Config) { c.Mem.KneeRefs = 0 },
		func(c *Config) { c.Mem.MaxRefsPerCore = 0 },
		func(c *Config) { c.Mem.OversubPenalty = -1 },
		func(c *Config) { c.Thermal.TimeConstant = 0 },
		func(c *Config) { c.Thermal.Resistance = -1 },
	}
	for i, mutate := range bad {
		cfg := M620()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted bad config", i)
		}
	}
	if err := M620().Validate(); err != nil {
		t.Errorf("M620 config invalid: %v", err)
	}
}

func TestSocketOf(t *testing.T) {
	cfg := M620()
	for core, want := range map[int]int{0: 0, 7: 0, 8: 1, 15: 1} {
		if got := cfg.SocketOf(core); got != want {
			t.Errorf("SocketOf(%d) = %d, want %d", core, got, want)
		}
	}
}

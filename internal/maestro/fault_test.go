package maestro

import (
	"sync"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/rcr"
	"repro/internal/resilience/leak"
	"repro/internal/telemetry"
)

// faultStack builds machine + blackboard + runtime with a controllable
// meter feeder instead of a real sampler: a 2 ms ticker publishes fresh
// High/High rows while healthy and goes silent (meters age) otherwise.
// The clock stays parked outside await, which moves it one feeder period
// at a time until a condition holds, so a run is a pure function of the
// test's own actions.
func faultStack(t *testing.T, dcfg Config) (d *Daemon, setHealthy func(bool), await func(what string, cond func() bool)) {
	t.Helper()
	const feed = 2 * time.Millisecond
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
	rt := startRuntime(t, m, 2, m.Hold())
	bb, err := rcr.NewBlackboard(1, 2)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	healthy := true
	setHealthy = func(v bool) { mu.Lock(); healthy = v; mu.Unlock() }
	if _, err := m.AddTicker(feed, func(now time.Duration, _ *machine.Snapshot) {
		mu.Lock()
		ok := healthy
		mu.Unlock()
		if !ok {
			return
		}
		bb.SetSocket(0, rcr.MeterPower, 100, now)             // High (default 65)
		bb.SetSocket(0, rcr.MeterMemConcurrency, 0.9*28, now) // High (0.75 × knee)
		bb.SetSocket(0, rcr.MeterMemBandwidth, 1e9, now)
	}); err != nil {
		t.Fatal(err)
	}

	if d, err = Start(rt, bb, dcfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)

	await = func(what string, cond func() bool) {
		t.Helper()
		for n := 0; n < int(10*time.Second/feed); n++ {
			if cond() {
				return
			}
			idle(t, rt, feed)
		}
		t.Fatalf("condition never held within 10 s of virtual time: %s", what)
	}
	return d, setHealthy, await
}

// TestDaemonFailsafeJournalAndCounters walks one full
// fault→fail-safe→recovery cycle and checks the observable record: the
// journal carries fault_detected, failsafe_entered and recovered events
// in order, and the maestro_* fault counters and gauge track the cycle.
func TestDaemonFailsafeJournalAndCounters(t *testing.T) {
	leak.Check(t)
	reg := telemetry.NewRegistry()
	jnl := telemetry.NewJournal(4096, 1)
	d, setHealthy, await := faultStack(t, Config{
		Period:    5 * time.Millisecond,
		Telemetry: reg,
		Journal:   jnl,
	})

	await("daemon engages on High/High", func() bool { return d.Stats().Activations > 0 })
	setHealthy(false)
	await("watchdog enters fail-safe", func() bool { return d.Stats().Failsafe })
	if v := reg.Gauge("maestro_failsafe").Value(); v != 1 {
		t.Errorf("maestro_failsafe gauge = %v during outage, want 1", v)
	}
	setHealthy(true)
	await("daemon recovers", func() bool { return !d.Stats().Failsafe })

	st := d.Stats()
	if st.FaultsSeen == 0 || st.FailsafeEntries != 1 || st.Recoveries != 1 {
		t.Errorf("stats %+v: want faults > 0, exactly one entry and one recovery", st)
	}
	if v := reg.Counter("maestro_fault_detected_total").Value(); v != st.FaultsSeen {
		t.Errorf("fault counter %v != stats %d", v, st.FaultsSeen)
	}
	if v := reg.Counter("maestro_failsafe_entered_total").Value(); v != 1 {
		t.Errorf("failsafe counter = %v, want 1", v)
	}
	if v := reg.Counter("maestro_recovered_total").Value(); v != 1 {
		t.Errorf("recovered counter = %v, want 1", v)
	}
	if v := reg.Gauge("maestro_failsafe").Value(); v != 0 {
		t.Errorf("maestro_failsafe gauge = %v after recovery, want 0", v)
	}

	// Event records appear in causal order, and the entry released the
	// throttle (Engaged false from the failsafe_entered record on).
	var order []string
	for _, e := range jnl.Entries() {
		switch e.Kind {
		case telemetry.KindFaultDetected, telemetry.KindFailsafeEntered, telemetry.KindRecovered:
			order = append(order, e.Kind)
			if e.Kind == telemetry.KindFailsafeEntered && e.Engaged {
				t.Error("failsafe_entered record still shows engaged")
			}
		}
	}
	want := []string{telemetry.KindFaultDetected, telemetry.KindFailsafeEntered, telemetry.KindRecovered}
	if len(order) < 3 {
		t.Fatalf("journal events %v, want at least %v", order, want)
	}
	for i, k := range want {
		if order[i] != k {
			t.Fatalf("journal events %v, want prefix %v", order, want)
		}
	}
}

// TestDaemonCadenceUnderActuationDelay is the regression test for the
// poll-ticker drift fix (ISSUE satellite #2): with every actuation
// delayed by 2.5 polling periods, the daemon's decision cadence must
// stay on the absolute k×Period grid — overlapped polls are missed and
// counted, never shifted. Under relative re-arming (next = now + period)
// each delay would push every subsequent poll off the grid.
func TestDaemonCadenceUnderActuationDelay(t *testing.T) {
	leak.Check(t)
	const period = 10 * time.Millisecond
	reg := telemetry.NewRegistry()
	jnl := telemetry.NewJournal(8192, 1)
	var mu sync.Mutex
	delayed := 0
	d, _, await := faultStack(t, Config{
		Period: period,
		ActuationHook: func(now time.Duration, engage bool) (time.Duration, bool) {
			mu.Lock()
			delayed++
			mu.Unlock()
			return 25 * time.Millisecond, false
		},
		Telemetry: reg,
		Journal:   jnl,
	})

	// The engage actuation is deferred 2.5 periods: the polls inside the
	// busy window must be missed (counted), not shifted.
	await("first activation", func() bool { return d.Stats().Activations > 0 })
	await("delayed actuation applies", func() bool { return throttled(d.rt) })
	await("missed polls accumulate", func() bool { return d.Stats().MissedPolls > 0 })
	await("several more polls land", func() bool { return d.Stats().Samples > 40 })

	mu.Lock()
	nDelayed := delayed
	mu.Unlock()
	if nDelayed == 0 {
		t.Fatal("actuation hook never invoked")
	}
	if v := reg.Counter("maestro_actuation_delayed_total").Value(); v == 0 {
		t.Error("maestro_actuation_delayed_total never incremented")
	}
	st := d.Stats()
	if st.MissedPolls == 0 {
		t.Error("no missed polls: the busy window never overlapped the grid")
	}

	// Every journal record — decisions and events alike — must sit
	// exactly on the k×Period grid.
	entries := jnl.Entries()
	if len(entries) == 0 {
		t.Fatal("empty journal")
	}
	for _, e := range entries {
		if e.T%period != 0 {
			t.Fatalf("record at %v is off the %v grid: cadence drifted", e.T, period)
		}
	}
	// And the grid must be contiguous enough: gaps between consecutive
	// decisions are exact multiples of the period (missed polls skip
	// slots, they do not shift them).
	for i := 1; i < len(entries); i++ {
		gap := entries[i].T - entries[i-1].T
		if gap < 0 || gap%period != 0 {
			t.Fatalf("gap %v between records %d and %d is not a whole number of periods", gap, i-1, i)
		}
	}
}

// TestPendingActuationTracksLatestDesired is the regression test for
// grid drift when a policy changes its mind while an actuation is in
// flight (ISSUE satellite: actuation-grid drift). The machine is frozen
// and the poll/fire callbacks are driven by hand, which makes the racy
// interleaving deterministic: a poll lands exactly at the end of the
// busy window, flips the desired state, and only then does the delayed
// actuation fire. The in-flight actuation must carry no payload — the
// fire applies the *latest* desired point — and the flip must neither
// invoke the hook a second time nor re-anchor the busy window off the
// k×Period grid.
func TestPendingActuationTracksLatestDesired(t *testing.T) {
	leak.Check(t)
	const period = 100 * time.Millisecond
	mcfg := machine.M620()
	mcfg.Sockets = 1
	mcfg.CoresPerSocket = 2
	m, err := machine.New(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	// Parked until m.Stop below: with the workers idle, a running engine
	// would step straight to the daemon's hourly ticker and poll an empty
	// board before the test's first poll.
	rt := startRuntime(t, m, 2, m.Hold())
	bb, err := rcr.NewBlackboard(1, 2)
	if err != nil {
		t.Fatal(err)
	}

	hooks := 0
	d, err := Start(rt, bb, Config{
		// The daemon's own ticker never fires: the engine is stopped and
		// this test calls poll/firePending directly, single-threaded.
		Period: time.Hour,
		ActuationHook: func(now time.Duration, engage bool) (time.Duration, bool) {
			hooks++
			return 250 * time.Millisecond, false // 2.5 polling periods
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)
	m.Stop() // freeze virtual time; callbacks below run on this goroutine

	feed := func(now time.Duration, hot bool) {
		power, conc := 30.0, 2.0 // Low/Low
		if hot {
			power, conc = 100, 0.9*28 // High/High
		}
		bb.SetSocket(0, rcr.MeterPower, power, now)
		bb.SetSocket(0, rcr.MeterMemConcurrency, conc, now)
	}

	// Poll 1: High/High → engage decided, actuation deferred 2.5 periods.
	feed(period, true)
	d.poll(period, nil)
	if hooks != 1 {
		t.Fatalf("after engage decision: hook ran %d times, want 1", hooks)
	}
	if d.pendingID < 0 {
		t.Fatal("no pending actuation registered")
	}
	if throttled(rt) {
		t.Fatal("throttle applied before the deferred actuation fired")
	}
	if want := period + 250*time.Millisecond; d.busyUntil != want {
		t.Fatalf("busyUntil = %v, want %v", d.busyUntil, want)
	}

	// Poll 2 overlaps the busy window: missed, not shifted.
	d.poll(2*period, nil)
	if got := d.Stats().MissedPolls; got != 1 {
		t.Fatalf("MissedPolls = %d, want 1", got)
	}

	// Poll 3 lands exactly when the busy window ends but before the
	// pending actuation fires (a same-deadline tie the engine's heap may
	// order either way). The load has dropped: desired flips to released
	// while the engage actuation is still in flight. The flip must not
	// re-invoke the hook and must not move the busy window.
	tie := period + 250*time.Millisecond
	feed(tie, false)
	d.poll(tie, nil)
	if hooks != 1 {
		t.Fatalf("desired flip while pending re-invoked the hook: %d calls, want 1", hooks)
	}
	if want := period + 250*time.Millisecond; d.busyUntil != want {
		t.Fatalf("desired flip re-anchored busyUntil to %v, want %v", d.busyUntil, want)
	}

	// The deferred actuation now fires: it must apply the *latest*
	// desired point (released), not the engage captured at issue time.
	d.firePending(tie, nil)
	if d.pendingID >= 0 {
		t.Fatal("pending actuation still registered after firing")
	}
	if throttled(rt) {
		t.Fatal("fire applied the stale engage payload over the newer release decision")
	}

	// The next hot poll re-issues the actuation anchored at its own
	// on-grid timestamp — not at any earlier decision time.
	feed(4*period, true)
	d.poll(4*period, nil)
	if hooks != 2 {
		t.Fatalf("re-engage after fire: hook ran %d times, want 2", hooks)
	}
	if want := 4*period + 250*time.Millisecond; d.busyUntil != want {
		t.Fatalf("re-engage busyUntil = %v, want %v (anchored at the poll, on-grid)", d.busyUntil, want)
	}
	d.firePending(4*period, nil)
	if !throttled(rt) {
		t.Fatal("re-engage never applied")
	}
	st := d.Stats()
	if st.Activations != 2 || st.Deactivations != 1 {
		t.Fatalf("activations/deactivations = %d/%d, want 2/1", st.Activations, st.Deactivations)
	}
}

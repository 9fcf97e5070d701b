package faults

import (
	"math"
	"testing"
	"time"

	"repro/internal/msr"
	"repro/internal/rcr"
)

func fixedClock(at time.Duration) func() time.Duration {
	return func() time.Duration { return at }
}

func TestGenerateScheduleShape(t *testing.T) {
	horizon := 400 * time.Millisecond
	for seed := uint64(0); seed < 200; seed++ {
		sched := GenerateSchedule(seed, horizon, 2)
		if len(sched.Events) < 3 || len(sched.Events) > 8 {
			t.Fatalf("seed %d: %d events, want 3..8", seed, len(sched.Events))
		}
		checkEnvelope(t, horizon, sched.Events)
		for i, ev := range sched.Events {
			if ev.Kind < 0 || ev.Kind >= NumKinds {
				t.Errorf("seed %d event %d: kind %v out of range", seed, i, ev.Kind)
			}
			if ev.Domain < -1 || ev.Domain >= 2 {
				t.Errorf("seed %d event %d: domain %d out of range", seed, i, ev.Domain)
			}
			if ev.Kind == ActuationDelay && ev.Delay <= 0 {
				t.Errorf("seed %d event %d: ActuationDelay without a delay", seed, i)
			}
		}
	}
}

// checkEnvelope checks the envelope every tier's plan keeps
// (stream.window): each window starts in the first 3/5 of the horizon it
// was drawn on, is not empty and closes by 4/5 of it, and ClearTime is at
// or after every close. A churn op is an instant, [At, At+Dwell) with
// Dwell possibly zero, that may be pushed past 3/5 to follow its
// target's join, so for churn plans only the close is bounded.
func checkEnvelope[E interface{ span() Window }](t *testing.T, horizon time.Duration, events []E) {
	t.Helper()
	clear := ClearTime(events)
	for i := range events {
		w := events[i].span()
		_, churn := any(events[i]).(MembershipEvent)
		switch {
		case w.Start < 0 || w.End > horizon*4/5 || w.End > clear:
			t.Fatalf("event %d of %d: window [%v, %v) outside [0, %v] or past ClearTime %v", i, len(events), w.Start, w.End, horizon*4/5, clear)
		case churn && w.End < w.Start:
			t.Fatalf("event %d of %d: churn op at %v ends before it fires, at %v", i, len(events), w.Start, w.End)
		case !churn && (w.Start >= horizon*3/5 || w.End <= w.Start):
			t.Fatalf("event %d of %d: window [%v, %v) empty or starting past %v", i, len(events), w.Start, w.End, horizon*3/5)
		}
	}
}

// FuzzGenerators runs all five schedule generators on arbitrary seeds,
// horizons and sizes: none may panic, and every plan keeps the shared
// envelope on the horizon it was drawn on — the one given, or its tier's
// default when that one cannot hold the envelope (tierHorizon).
func FuzzGenerators(f *testing.F) {
	f.Add(uint64(0), int64(400*time.Millisecond), int8(2), int8(0))
	f.Add(uint64(1), int64(1), int8(1), int8(1)) // a few nanoseconds
	f.Add(uint64(2), int64(49), int8(2), int8(4))
	f.Add(uint64(3), int64(2*time.Second), int8(4), int8(16))
	f.Add(uint64(4), int64(-1), int8(-3), int8(-7))
	f.Add(uint64(5), int64(math.MaxInt64), int8(64), int8(127))
	f.Fuzz(func(t *testing.T, seed uint64, h int64, a, b int8) {
		horizon := time.Duration(h)
		checkEnvelope(t, tierHorizon(horizon, 400*time.Millisecond), GenerateSchedule(seed, horizon, int(a)).Events)
		def := tierHorizon(horizon, 2*time.Second)
		checkEnvelope(t, def, GenerateServiceSchedule(seed, horizon).Events)
		checkEnvelope(t, def, GenerateFleetSchedule(seed, int(a), horizon).Events)
		checkEnvelope(t, def, GenerateWANSchedule(seed, int(a), int(b), horizon).Events)
		checkEnvelope(t, def, GenerateMembershipSchedule(seed, int(a), int(b), horizon).Events)
	})
}

func TestInjectorNormalizesHostileEvents(t *testing.T) {
	in := NewInjector(Schedule{Events: []Event{
		{Kind: Kind(999), Domain: -7, Window: Window{-time.Second, -2 * time.Second}, Delay: -time.Minute},
		{Kind: ActuationDelay, Window: Window{0, time.Second}, Delay: time.Hour},
	}}, fixedClock(0))
	ev := in.Schedule().Events
	if ev[0].Kind < 0 || ev[0].Kind >= NumKinds {
		t.Errorf("kind not normalized: %v", ev[0].Kind)
	}
	if ev[0].Domain != -1 || ev[0].Start != 0 || ev[0].End != 0 || ev[0].Delay != 0 {
		t.Errorf("event not clamped: %+v", ev[0])
	}
	if ev[1].Delay != time.Second {
		t.Errorf("delay not capped at 1s: %v", ev[1].Delay)
	}
}

func TestMSRReadHookFaults(t *testing.T) {
	window := Event{Window: Window{10 * time.Millisecond, 20 * time.Millisecond}, Domain: 0}
	read := func(kind Kind, at time.Duration, val uint64) (uint64, error) {
		ev := window
		ev.Kind = kind
		in := NewInjector(Schedule{Seed: 1, Events: []Event{ev}}, fixedClock(at))
		return in.MSRReadHook()(msr.Access{Index: 0, Addr: msr.MSRPkgEnergyStatus, Value: val})
	}

	// Outside the window, and on the wrong domain, reads pass through.
	if v, err := read(MSRReadError, 5*time.Millisecond, 42); err != nil || v != 42 {
		t.Errorf("outside window: got %d, %v", v, err)
	}
	in := NewInjector(Schedule{Events: []Event{{Kind: MSRReadError, Domain: 1, Window: Window{End: time.Second}}}}, fixedClock(0))
	if v, err := in.MSRReadHook()(msr.Access{Index: 0, Addr: msr.MSRPkgEnergyStatus, Value: 42}); err != nil || v != 42 {
		t.Errorf("wrong domain: got %d, %v", v, err)
	}
	// Non-energy registers are never touched.
	if v, err := in.MSRReadHook()(msr.Access{Core: true, Index: 1, Addr: msr.IA32ClockModulation, Value: 9}); err != nil || v != 9 {
		t.Errorf("core register intercepted: got %d, %v", v, err)
	}

	if _, err := read(MSRReadError, 15*time.Millisecond, 42); err == nil {
		t.Error("MSRReadError inside window returned no error")
	}
	if v, err := read(MSRGarbage, 15*time.Millisecond, 42); err != nil || v == 42 || v > 0xffffffff {
		t.Errorf("MSRGarbage: got %d, %v (want corrupted 32-bit value)", v, err)
	}

	// Stuck latches the first value seen and repeats it.
	ev := window
	ev.Kind = MSRStuck
	stuck := NewInjector(Schedule{Events: []Event{ev}}, fixedClock(15*time.Millisecond))
	hook := stuck.MSRReadHook()
	if v, _ := hook(msr.Access{Index: 0, Addr: msr.MSRPkgEnergyStatus, Value: 100}); v != 100 {
		t.Errorf("first stuck read = %d, want latched 100", v)
	}
	if v, _ := hook(msr.Access{Index: 0, Addr: msr.MSRPkgEnergyStatus, Value: 200}); v != 100 {
		t.Errorf("second stuck read = %d, want latched 100", v)
	}
	if stuck.Injected(MSRStuck) != 2 {
		t.Errorf("Injected(MSRStuck) = %d, want 2", stuck.Injected(MSRStuck))
	}
}

func TestSamplerGates(t *testing.T) {
	sched := Schedule{Events: []Event{
		{Kind: SamplerStall, Window: Window{0, 10 * time.Millisecond}},
		{Kind: SamplerCrash, Window: Window{20 * time.Millisecond, 30 * time.Millisecond}},
		{Kind: MeterDrop, Domain: 1, Window: Window{0, 50 * time.Millisecond}},
	}}
	in := NewInjector(sched, fixedClock(0))
	tick, meter := in.SamplerTick(), in.MeterGate()
	if got := tick(5 * time.Millisecond); got != rcr.TickSkip {
		t.Errorf("tick in stall window = %v, want TickSkip", got)
	}
	if got := tick(15 * time.Millisecond); got != rcr.TickRun {
		t.Errorf("tick between windows = %v, want TickRun", got)
	}
	if got := tick(25 * time.Millisecond); got != rcr.TickDie {
		t.Errorf("tick in crash window = %v, want TickDie", got)
	}
	if meter(5*time.Millisecond, 1, rcr.MeterPower) {
		t.Error("meter gate passed a publish inside a MeterDrop window")
	}
	if !meter(5*time.Millisecond, 0, rcr.MeterPower) {
		t.Error("meter gate dropped a publish for an uncovered socket")
	}
}

func TestActuationHook(t *testing.T) {
	sched := Schedule{Events: []Event{
		{Kind: ActuationDelay, Window: Window{0, 10 * time.Millisecond}, Delay: 7 * time.Millisecond},
		{Kind: ActuationDrop, Window: Window{20 * time.Millisecond, 30 * time.Millisecond}},
	}}
	in := NewInjector(sched, fixedClock(0))
	act := in.Actuation()
	if d, drop := act(5*time.Millisecond, true); d != 7*time.Millisecond || drop {
		t.Errorf("in delay window: (%v, %v), want (7ms, false)", d, drop)
	}
	if d, drop := act(25*time.Millisecond, true); d != 0 || !drop {
		t.Errorf("in drop window: (%v, %v), want (0, true)", d, drop)
	}
	if d, drop := act(15*time.Millisecond, true); d != 0 || drop {
		t.Errorf("between windows: (%v, %v), want (0, false)", d, drop)
	}
}

// FuzzFaultSchedule throws arbitrary (possibly hostile) schedules at the
// injector's hooks: normalization must keep every hook total — no
// panics, garbage confined to 32 bits, delays bounded.
func FuzzFaultSchedule(f *testing.F) {
	f.Add(uint64(1), int64(0), int64(1e6), int64(5e5), int(0), int(0))
	f.Add(uint64(2), int64(-5), int64(-10), int64(1e18), int(-3), int(7))
	f.Add(uint64(3), int64(1e15), int64(1e9), int64(0), int(1), int(999))
	f.Fuzz(func(t *testing.T, seed uint64, start, end, at int64, domain, kind int) {
		sched := Schedule{Seed: seed, Events: []Event{{
			Kind:   Kind(kind),
			Domain: domain,
			Window: Window{time.Duration(start), time.Duration(end)},
			Delay:  time.Duration(end - start),
		}}}
		in := NewInjector(sched, fixedClock(time.Duration(at)))
		v, err := in.MSRReadHook()(msr.Access{Index: 0, Addr: msr.MSRPkgEnergyStatus, Value: 1234})
		if err == nil && v > 0xffffffff && v != 1234 {
			t.Errorf("hook produced out-of-range counter %d", v)
		}
		in.SamplerTick()(time.Duration(at))
		in.MeterGate()(time.Duration(at), domain, rcr.MeterPower)
		if d, _ := in.Actuation()(time.Duration(at), true); d < 0 || d > time.Second {
			t.Errorf("actuation delay %v outside [0, 1s]", d)
		}
	})
}

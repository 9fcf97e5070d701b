package faults

import (
	"testing"
	"time"

	"repro/internal/msr"
	"repro/internal/rcr"
)

func fixedClock(at time.Duration) func() time.Duration {
	return func() time.Duration { return at }
}

func TestGenerateScheduleShape(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		sched := GenerateSchedule(seed, 400*time.Millisecond, 2)
		if len(sched.Events) < 3 || len(sched.Events) > 8 {
			t.Fatalf("seed %d: %d events, want 3..8", seed, len(sched.Events))
		}
		latest := 400 * time.Millisecond * 4 / 5
		for i, ev := range sched.Events {
			if ev.Kind < 0 || ev.Kind >= NumKinds {
				t.Errorf("seed %d event %d: kind %v out of range", seed, i, ev.Kind)
			}
			if ev.Domain < -1 || ev.Domain >= 2 {
				t.Errorf("seed %d event %d: domain %d out of range", seed, i, ev.Domain)
			}
			if ev.Start < 0 || ev.End <= ev.Start || ev.End > latest {
				t.Errorf("seed %d event %d: window [%v, %v) outside (0, %v]", seed, i, ev.Start, ev.End, latest)
			}
			if ev.Kind == ActuationDelay && ev.Delay <= 0 {
				t.Errorf("seed %d event %d: ActuationDelay without a delay", seed, i)
			}
		}
		if sched.ClearTime() > latest {
			t.Errorf("seed %d: ClearTime %v past %v", seed, sched.ClearTime(), latest)
		}
	}
}

func TestInjectorNormalizesHostileEvents(t *testing.T) {
	in := NewInjector(Schedule{Events: []Event{
		{Kind: Kind(999), Domain: -7, Start: -time.Second, End: -2 * time.Second, Delay: -time.Minute},
		{Kind: ActuationDelay, Start: 0, End: time.Second, Delay: time.Hour},
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
	window := Event{Start: 10 * time.Millisecond, End: 20 * time.Millisecond, Domain: 0}
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
	in := NewInjector(Schedule{Events: []Event{{Kind: MSRReadError, Domain: 1, End: time.Second}}}, fixedClock(0))
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
		{Kind: SamplerStall, Start: 0, End: 10 * time.Millisecond},
		{Kind: SamplerCrash, Start: 20 * time.Millisecond, End: 30 * time.Millisecond},
		{Kind: MeterDrop, Domain: 1, Start: 0, End: 50 * time.Millisecond},
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
		{Kind: ActuationDelay, Start: 0, End: 10 * time.Millisecond, Delay: 7 * time.Millisecond},
		{Kind: ActuationDrop, Start: 20 * time.Millisecond, End: 30 * time.Millisecond},
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
			Start:  time.Duration(start),
			End:    time.Duration(end),
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

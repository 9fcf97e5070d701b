package rapl

import (
	"errors"
	"testing"
	"time"

	"repro/internal/msr"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// stateOf reads a domain's health state under the guard's lock.
func stateOf(g *Guard, domain int) GuardState {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.doms[domain].state
}

// settableClock is a manual time source for backoff-deadline tests.
type settableClock struct{ at time.Duration }

func (c *settableClock) now() time.Duration { return c.at }

// TestMSRReaderFaultSpansWrap is the regression test for the 32-bit wrap
// handling across read faults: when an outage spans
// a counter wrap, the reader must resynchronize on recovery instead of
// booking the cross-outage difference — which, taken as a wrap-corrected
// delta, would be a near-full phantom 2^32 lap (~65.7 kJ).
func TestMSRReaderFaultSpansWrap(t *testing.T) {
	file := msr.NewFile(1, 1)
	// Park the counter just below the wrap point.
	if err := file.WritePackage(0, msr.MSRPkgEnergyStatus, units.RAPLCounterMod-100); err != nil {
		t.Fatal(err)
	}
	r, err := NewMSRReader(file)
	if err != nil {
		t.Fatal(err)
	}

	// One clean sample: 50 counts booked.
	if err := file.WritePackage(0, msr.MSRPkgEnergyStatus, units.RAPLCounterMod-50); err != nil {
		t.Fatal(err)
	}
	e, err := r.Energy(0)
	if err != nil {
		t.Fatal(err)
	}
	if want := counts(50); e != want {
		t.Fatalf("pre-outage energy %v, want %v", e, want)
	}

	// Outage: reads fail while the counter wraps past zero underneath.
	injected := errors.New("injected: rdmsr failed")
	file.SetReadHook(func(a msr.Access) (uint64, error) {
		if !a.Core && a.Addr == msr.MSRPkgEnergyStatus {
			return 0, injected
		}
		return a.Value, nil
	})
	for i := 0; i < 3; i++ {
		if _, err := r.Energy(0); !errors.Is(err, injected) {
			t.Fatalf("read %d during outage: err = %v, want injected", i, err)
		}
	}
	if err := file.WritePackage(0, msr.MSRPkgEnergyStatus, 40); err != nil {
		t.Fatal(err)
	}
	file.SetReadHook(nil)

	// Recovery: the baseline (2^32-50) is now numerically above the
	// counter (40). Wrap correction would read that as a 90-count lap —
	// plausible here, but indistinguishable from any number of whole
	// revolutions during an unbounded outage, so the reader must book
	// nothing and resync.
	e, err = r.Energy(0)
	if err != nil {
		t.Fatal(err)
	}
	if want := counts(50); e != want {
		t.Fatalf("post-outage energy %v, want %v (no cross-outage booking)", e, want)
	}

	// Normal accumulation resumes from the fresh baseline.
	if err := file.WritePackage(0, msr.MSRPkgEnergyStatus, 140); err != nil {
		t.Fatal(err)
	}
	e, err = r.Energy(0)
	if err != nil {
		t.Fatal(err)
	}
	if want := counts(150); e != want {
		t.Fatalf("post-recovery energy %v, want %v", e, want)
	}
}

// TestMSRReaderFaultWithoutWrap: the conservative resync also applies
// when no wrap happened — the outage window's energy is unattributable
// either way, and under-counting beats risking a 65 kJ phantom.
func TestMSRReaderFaultWithoutWrap(t *testing.T) {
	file := msr.NewFile(1, 1)
	r, err := NewMSRReader(file)
	if err != nil {
		t.Fatal(err)
	}
	injected := errors.New("injected")
	file.SetReadHook(func(msr.Access) (uint64, error) { return 0, injected })
	if _, err := r.Energy(0); err == nil {
		t.Fatal("read during outage succeeded")
	}
	file.SetReadHook(nil)
	if err := file.WritePackage(0, msr.MSRPkgEnergyStatus, 1000); err != nil {
		t.Fatal(err)
	}
	e, err := r.Energy(0)
	if err != nil {
		t.Fatal(err)
	}
	if e != 0 {
		t.Fatalf("post-outage energy %v, want 0 (resync only)", e)
	}
}

// TestGuardReadsClockOnlyForDeadlines: a healthy read and a suspect
// fault leave the clock alone; it is read when a fault sets a quarantine
// deadline and when a quarantined read checks it. The simulator's clock
// takes the machine's lock, and the sampler reads every domain each tick.
func TestGuardReadsClockOnlyForDeadlines(t *testing.T) {
	fake := NewFake(1)
	reads := 0
	g, err := NewGuard(fake, GuardConfig{Clock: func() time.Duration { reads++; return 0 }})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		fake.Add(0, 1)
		if _, err := g.Energy(0); err != nil {
			t.Fatal(err)
		}
	}
	fake.SetError(errors.New("injected"))
	for i, want := range []int{0, 0, 1, 2} { // suspect, suspect, quarantined, refused
		g.Energy(0)
		if reads != want {
			t.Fatalf("after fault %d: %d clock reads, want %d", i+1, reads, want)
		}
	}
}

// TestGuardStateMachine walks a domain through the full fail-safe cycle:
// sensing → suspect → quarantined (with doubling, bounded backoff) →
// recovered → sensing, checking the booked energy at each step.
func TestGuardStateMachine(t *testing.T) {
	fake := NewFake(1)
	clk := &settableClock{}
	reg := telemetry.NewRegistry()
	g, err := NewGuard(fake, GuardConfig{Clock: clk.now, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}

	// Healthy reads book deltas and hold sensing.
	if _, err := g.Energy(0); err != nil { // establishes the baseline
		t.Fatal(err)
	}
	fake.Add(0, 5)
	e, err := g.Energy(0)
	if err != nil || e != 5 {
		t.Fatalf("healthy read: %v, %v; want 5 J", e, err)
	}
	if s := stateOf(g, 0); s != GuardSensing {
		t.Fatalf("state %v, want sensing", s)
	}

	// First fault: suspect, still retrying on every call.
	injected := errors.New("injected")
	fake.SetError(injected)
	if _, err := g.Energy(0); !errors.Is(err, injected) {
		t.Fatalf("fault not propagated: %v", err)
	}
	if s := stateOf(g, 0); s != GuardSuspect {
		t.Fatalf("state after 1 fault: %v, want suspect", s)
	}

	// Second fault: still suspect.
	if _, err := g.Energy(0); !errors.Is(err, injected) {
		t.Fatalf("second fault: %v", err)
	}
	if s := stateOf(g, 0); s != GuardSuspect {
		t.Fatalf("state after 2 faults: %v, want suspect", s)
	}

	// Third fault: quarantined with the initial backoff.
	if _, err := g.Energy(0); !errors.Is(err, injected) {
		t.Fatalf("third fault: %v", err)
	}
	if s := stateOf(g, 0); s != GuardQuarantined {
		t.Fatalf("state after 3 faults: %v, want quarantined", s)
	}
	if g.Quarantined() != 1 {
		t.Fatalf("Quarantined() = %d, want 1", g.Quarantined())
	}

	// Inside the backoff window, reads are refused without touching the
	// inner reader.
	clk.at = 5 * time.Millisecond
	var qe *QuarantineError
	if _, err := g.Energy(0); !errors.As(err, &qe) {
		t.Fatalf("read inside backoff: %v, want QuarantineError", err)
	}
	if qe.RetryAt != 10*time.Millisecond {
		t.Fatalf("retry deadline %v, want 10ms", qe.RetryAt)
	}

	// Failed retries double the backoff, bounded at 80 ms.
	wantRetry := []time.Duration{30, 70, 150, 230, 310} // +20ms, +40ms, +80ms, +80ms (capped), +80ms
	for i, want := range wantRetry {
		clk.at = qe.RetryAt
		if _, err := g.Energy(0); !errors.Is(err, injected) {
			t.Fatalf("retry %d: %v", i, err)
		}
		clk.at += time.Millisecond
		if _, err := g.Energy(0); !errors.As(err, &qe) {
			t.Fatalf("retry %d aftermath: %v, want QuarantineError", i, err)
		}
		if qe.RetryAt != want*time.Millisecond {
			t.Fatalf("retry %d deadline %v, want %v", i, qe.RetryAt, want*time.Millisecond)
		}
	}

	// Recovery: energy advanced 100 J during the outage, but the first
	// success only resynchronizes — nothing booked, state recovered.
	fake.SetError(nil)
	fake.Add(0, 100)
	clk.at = qe.RetryAt
	e, err = g.Energy(0)
	if err != nil || e != 5 {
		t.Fatalf("recovery read: %v, %v; want 5 J (no cross-outage booking)", e, err)
	}
	if s := stateOf(g, 0); s != GuardRecovered {
		t.Fatalf("state after recovery: %v, want recovered", s)
	}
	if g.Quarantined() != 0 {
		t.Fatalf("Quarantined() = %d after recovery, want 0", g.Quarantined())
	}

	// The next clean delta books normally and returns to sensing.
	fake.Add(0, 7)
	e, err = g.Energy(0)
	if err != nil || e != 12 {
		t.Fatalf("post-recovery read: %v, %v; want 12 J", e, err)
	}
	if s := stateOf(g, 0); s != GuardSensing {
		t.Fatalf("state after clean read: %v, want sensing", s)
	}

	if v := reg.Counter("rapl_guard_quarantines_total").Value(); v != 1 {
		t.Errorf("quarantines counter = %v, want 1", v)
	}
	if v := reg.Counter("rapl_guard_recoveries_total").Value(); v != 1 {
		t.Errorf("recoveries counter = %v, want 1", v)
	}
}

// TestGuardPlausibilityClamp: a garbage counter value that the inner
// reader booked as a huge wrap-corrected delta (the phantom-lap failure
// of satellite #1, ~65.7 kJ) must be absorbed by the guard — rejected,
// baseline resynced, nothing accumulated.
func TestGuardPlausibilityClamp(t *testing.T) {
	fake := NewFake(1)
	clk := &settableClock{}
	g, err := NewGuard(fake, GuardConfig{Clock: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Energy(0); err != nil {
		t.Fatal(err)
	}
	fake.Add(0, 10)
	if e, err := g.Energy(0); err != nil || e != 10 {
		t.Fatalf("clean read: %v, %v", e, err)
	}

	// Phantom lap: the inner accumulator jumps by a near-full 32-bit
	// revolution's worth of energy.
	fake.Add(0, counts(units.RAPLCounterMod-1))
	var ie *ImplausibleError
	if _, err := g.Energy(0); !errors.As(err, &ie) {
		t.Fatalf("phantom lap accepted: %v", err)
	}

	// The lap never reaches the caller; normal deltas resume on top of
	// the resynced baseline once the domain recovers.
	fake.Add(0, 20)
	if e, err := g.Energy(0); err != nil || e != 10 {
		t.Fatalf("recovery read: %v, %v; want 10 J", e, err)
	}
	fake.Add(0, 20)
	if e, err := g.Energy(0); err != nil || e != 30 {
		t.Fatalf("post-recovery read: %v, %v; want 30 J", e, err)
	}

	// A backwards-moving accumulator is equally implausible.
	fake2 := NewFake(1)
	fake2.Add(0, 100)
	g2, err := NewGuard(fake2, GuardConfig{Clock: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g2.Energy(0); err != nil {
		t.Fatal(err)
	}
	fake2.Add(0, -50)
	if _, err := g2.Energy(0); !errors.As(err, &ie) {
		t.Fatalf("negative delta accepted: %v", err)
	}
}

// TestGuardStuckCounter: a frozen counter produces fresh-looking
// zero-power windows; after guardStuckAfter exact repeats the guard must flag
// the domain instead of reporting idle forever.
func TestGuardStuckCounter(t *testing.T) {
	fake := NewFake(1)
	clk := &settableClock{}
	g, err := NewGuard(fake, GuardConfig{Clock: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Energy(0); err != nil {
		t.Fatal(err)
	}
	fake.Add(0, 5)
	if _, err := g.Energy(0); err != nil {
		t.Fatal(err)
	}
	// Seven zero deltas pass; the eighth trips the stuck detector.
	for i := 0; i < guardStuckAfter-1; i++ {
		if _, err := g.Energy(0); err != nil {
			t.Fatalf("zero delta %d flagged early: %v", i, err)
		}
	}
	if _, err := g.Energy(0); err == nil {
		t.Fatal("stuck counter never flagged")
	}
	// Movement recovers the domain (resync first, then booking).
	fake.Add(0, 5)
	if e, err := g.Energy(0); err != nil || e != 5 {
		t.Fatalf("recovery read: %v, %v; want 5 J", e, err)
	}
	fake.Add(0, 5)
	if e, err := g.Energy(0); err != nil || e != 10 {
		t.Fatalf("post-recovery read: %v, %v; want 10 J", e, err)
	}
}

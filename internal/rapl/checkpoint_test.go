package rapl

import (
	"errors"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// quarantineFake drives a fresh guard's domain 0 into quarantine and
// books some energy into domain 1 first.
func quarantinedGuard(t *testing.T, clk *settableClock, reg *telemetry.Registry) (*Guard, *Fake) {
	t.Helper()
	fake := NewFake(2)
	g, err := NewGuard(fake, GuardConfig{Clock: clk.now, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	// Healthy domain 1: baseline + 25 J booked.
	if _, err := g.Energy(1); err != nil {
		t.Fatal(err)
	}
	fake.Add(1, 25)
	if e, err := g.Energy(1); err != nil || float64(e) != 25 {
		t.Fatalf("domain 1 energy %v, %v; want 25 J", e, err)
	}
	// Fault domain 0 into quarantine. The fake's error is global, so
	// domain 1 is simply not read during the outage.
	fake.SetError(errors.New("injected"))
	for i := 0; i < guardSuspectAfter; i++ {
		if _, err := g.Energy(0); err == nil {
			t.Fatal("injected fault not propagated")
		}
	}
	fake.SetError(nil)
	if s := stateOf(g, 0); s != GuardQuarantined {
		t.Fatalf("setup state %v, want quarantined", s)
	}
	return g, fake
}

// TestGuardCheckpointRestore simulates a daemon crash and restart: the
// checkpoint of a guard with one quarantined domain, restored into a
// fresh guard on a fresh clock, must keep the quarantine (remaining
// backoff re-anchored), keep the booked energy, and resync the baseline
// instead of booking the cross-restart delta.
func TestGuardCheckpointRestore(t *testing.T) {
	clk := &settableClock{at: 100 * time.Millisecond}
	g, _ := quarantinedGuard(t, clk, nil)
	clk.at += 4 * time.Millisecond // 6 ms of the 10 ms backoff remain
	cp := g.Checkpoint()
	if len(cp) != 2 {
		t.Fatalf("checkpoint has %d domains, want 2", len(cp))
	}
	if cp[0].State != GuardQuarantined || cp[0].RetryIn != 6*time.Millisecond {
		t.Fatalf("domain 0 checkpoint %+v, want quarantined with 6ms remaining", cp[0])
	}
	if cp[1].State != GuardSensing || cp[1].Acc != 25 {
		t.Fatalf("domain 1 checkpoint %+v, want sensing with 25 J", cp[1])
	}

	// "Restart": fresh guard over a fresh reader whose counters restart
	// from an arbitrary value, on a clock that restarts at zero.
	clk2 := &settableClock{}
	fake2 := NewFake(2)
	fake2.Add(0, 7777)
	fake2.Add(1, 8888)
	reg := telemetry.NewRegistry()
	g2, err := NewGuard(fake2, GuardConfig{Clock: clk2.now, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	g2.Restore(cp)

	// Quarantine survived the restart, re-anchored to the new clock.
	if s := stateOf(g2, 0); s != GuardQuarantined {
		t.Fatalf("restored state %v, want quarantined", s)
	}
	if got := reg.Gauge("rapl_guard_quarantined").Value(); got != 1 {
		t.Errorf("quarantined gauge after restore = %v, want 1", got)
	}
	var qe *QuarantineError
	if _, err := g2.Energy(0); !errors.As(err, &qe) {
		t.Fatalf("read inside restored backoff: %v, want QuarantineError", err)
	}
	if qe.RetryAt != 6*time.Millisecond {
		t.Errorf("restored retry deadline %v, want 6ms", qe.RetryAt)
	}

	// Healthy domain: the first read resyncs against the new counter
	// (8888) without booking it; the next delta books normally on top of
	// the restored 25 J.
	if e, err := g2.Energy(1); err != nil || float64(e) != 25 {
		t.Fatalf("first post-restore read %v, %v; want restored 25 J", e, err)
	}
	fake2.Add(1, 5)
	// One more read to leave GuardRecovered... domain 1 was sensing, so
	// deltas book immediately.
	if e, err := g2.Energy(1); err != nil || float64(e) != 30 {
		t.Fatalf("post-restore delta %v, %v; want 30 J", e, err)
	}

	// The quarantined domain recovers through the normal path once its
	// backoff passes.
	clk2.at = 7 * time.Millisecond
	if _, err := g2.Energy(0); err != nil {
		t.Fatalf("retry after restored backoff: %v", err)
	}
	if s := stateOf(g2, 0); s != GuardRecovered {
		t.Errorf("state after successful retry %v, want recovered", s)
	}
}

// TestGuardRestoreRejectsGarbage: out-of-range states and negative
// backoffs degrade to a safe cold start, and extra domains are ignored.
func TestGuardRestoreRejectsGarbage(t *testing.T) {
	clk := &settableClock{}
	fake := NewFake(1)
	g, err := NewGuard(fake, GuardConfig{Clock: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	g.Restore([]DomainCheckpoint{
		{State: GuardState(99), Faults: -3, Acc: 12, Backoff: -time.Second, RetryIn: -time.Hour},
		{State: GuardQuarantined}, // beyond the reader's domains: ignored
	})
	if s := stateOf(g, 0); s != GuardSensing {
		t.Errorf("garbage state restored as %v, want sensing", s)
	}
	if e, err := g.Energy(0); err != nil || float64(e) != 12 {
		t.Errorf("restored acc %v, %v; want 12 J", e, err)
	}
	if g.Quarantined() != 0 {
		t.Errorf("out-of-range domain leaked into quarantine count")
	}
}

// TestGuardRestoreClampsRetry: a checkpoint claiming a longer quarantine
// than the maximum backoff is clamped — a corrupt file cannot park a domain
// forever.
func TestGuardRestoreClampsRetry(t *testing.T) {
	clk := &settableClock{}
	fake := NewFake(1)
	g, err := NewGuard(fake, GuardConfig{Clock: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	g.Restore([]DomainCheckpoint{{State: GuardQuarantined, Backoff: time.Hour, RetryIn: time.Hour}})
	var qe *QuarantineError
	if _, err := g.Energy(0); !errors.As(err, &qe) {
		t.Fatalf("restored quarantine not enforced: %v", err)
	}
	if qe.RetryAt > 80*time.Millisecond {
		t.Errorf("restored retry deadline %v escaped the 80ms backoff clamp", qe.RetryAt)
	}
}

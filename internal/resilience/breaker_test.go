package resilience

import (
	"errors"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// fakeClock is a settable time source shared by the package's tests.
type fakeClock struct{ at time.Duration }

func (c *fakeClock) now() time.Duration { return c.at }

func newTestBreaker(t *testing.T, clk *fakeClock, j *telemetry.Journal, reg *telemetry.Registry) *Breaker {
	t.Helper()
	b, err := NewBreaker(BreakerConfig{
		Clock:            clk.now,
		FailureThreshold: 3,
		OpenFor:          100 * time.Millisecond,
		OpenForMax:       400 * time.Millisecond,
		Journal:          j,
		Telemetry:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// kinds extracts the Kind sequence of non-decision journal records.
func kinds(j *telemetry.Journal) []string {
	var out []string
	for _, d := range j.Entries() {
		if d.Kind != telemetry.KindDecision {
			out = append(out, d.Kind)
		}
	}
	return out
}

// TestBreakerLifecycle drives the full closed → open → half-open →
// closed cycle and asserts every transition was journaled.
func TestBreakerLifecycle(t *testing.T) {
	clk := &fakeClock{}
	j := telemetry.NewJournal(64, 1)
	reg := telemetry.NewRegistry()
	b := newTestBreaker(t, clk, j, reg)

	// Two failures: still closed (threshold is 3).
	b.Failure()
	b.Failure()
	if err := b.Allow(); err != nil {
		t.Fatalf("closed breaker refused: %v", err)
	}
	// An interleaved success clears the run.
	b.Success()
	b.Failure()
	b.Failure()
	if b.State() != BreakerClosed {
		t.Fatal("success did not reset the failure run")
	}
	// Third consecutive failure trips it.
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatalf("state %v after threshold, want open", b.State())
	}
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open breaker allowed: %v", err)
	}
	if got := reg.Counter("resilience_breaker_trips_total").Value(); got != 1 {
		t.Errorf("trips counter %d, want 1", got)
	}

	// Cooldown elapses: half-open, probes admitted.
	clk.at = 100 * time.Millisecond
	if err := b.Allow(); err != nil {
		t.Fatalf("half-open breaker refused a probe: %v", err)
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state %v after cooldown, want half-open", b.State())
	}
	// The first successful probe closes it.
	b.Success()
	if b.State() != BreakerClosed {
		t.Fatalf("state %v after probe success, want closed", b.State())
	}

	want := []string{
		telemetry.KindBreakerOpen,
		telemetry.KindBreakerHalfOpen,
		telemetry.KindBreakerClosed,
	}
	got := kinds(j)
	if len(got) != len(want) {
		t.Fatalf("journal kinds %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("journal kinds %v, want %v", got, want)
		}
	}
}

// TestBreakerProbeFailureDoublesCooldown: a failed half-open probe
// re-opens with twice the cooldown, bounded by OpenForMax.
func TestBreakerProbeFailureDoublesCooldown(t *testing.T) {
	clk := &fakeClock{}
	b := newTestBreaker(t, clk, nil, nil)
	for i := 0; i < 3; i++ {
		b.Failure()
	}
	// Probe at 100ms fails: cooldown doubles to 200ms.
	clk.at = 100 * time.Millisecond
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	b.Failure()
	clk.at = 250 * time.Millisecond // 150ms into the 200ms window
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("doubled cooldown not enforced: %v", err)
	}
	clk.at = 300 * time.Millisecond
	if err := b.Allow(); err != nil {
		t.Fatalf("breaker still closed to probes after doubled cooldown: %v", err)
	}
	// Fail probes until the cooldown saturates at OpenForMax (400ms).
	b.Failure()
	clk.at += 400 * time.Millisecond
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	b.Failure()
	clk.at += 400 * time.Millisecond
	if err := b.Allow(); err != nil {
		t.Fatalf("cooldown escaped OpenForMax: %v", err)
	}
}

// TestBreakerRequiresClock: construction without a clock fails.
func TestBreakerRequiresClock(t *testing.T) {
	if _, err := NewBreaker(BreakerConfig{}); err == nil {
		t.Fatal("breaker without clock constructed")
	}
}

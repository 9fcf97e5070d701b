package resilience

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/rcr"
	"repro/internal/telemetry"
)

// fakeClock is a settable time source shared by the package's tests.
type fakeClock struct{ at time.Duration }

func (c *fakeClock) now() time.Duration { return c.at }

// scriptedTransport is a QueryFunc whose health is toggled per address.
type scriptedTransport struct {
	down  map[string]bool
	calls []string // addresses in dial order
	now   func() time.Duration
}

func (s *scriptedTransport) query(_ context.Context, _, addr string) (rcr.Snapshot, error) {
	s.calls = append(s.calls, addr)
	if s.down[addr] {
		return rcr.Snapshot{}, errors.New("dial: connection refused")
	}
	return rcr.Snapshot{Now: s.now()}, nil
}

func newTestClient(t *testing.T, clk *fakeClock, tr *scriptedTransport, tune func(*ClientConfig)) (*Client, *telemetry.Registry, *telemetry.Journal) {
	t.Helper()
	reg := telemetry.NewRegistry()
	j := telemetry.NewJournal(64, 1)
	cfg := ClientConfig{
		Addrs:     []string{"primary", "replica"},
		Backoff:   Backoff{Base: 10 * time.Millisecond, Seed: 1},
		Clock:     clk.now,
		Sleep:     func(context.Context, time.Duration) {},
		Query:     tr.query,
		Journal:   j,
		Telemetry: reg,
	}
	if tune != nil {
		tune(&cfg)
	}
	c, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, reg, j
}

// TestClientHealthyPath: a healthy primary answers on the first dial,
// no retries, no failovers.
func TestClientHealthyPath(t *testing.T) {
	clk := &fakeClock{at: 50 * time.Millisecond}
	tr := &scriptedTransport{down: map[string]bool{}, now: clk.now}
	c, reg, _ := newTestClient(t, clk, tr, nil)
	snap, err := c.Query(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if snap.Now != 50*time.Millisecond {
		t.Errorf("snapshot Now = %v", snap.Now)
	}
	if len(tr.calls) != 1 || tr.calls[0] != "primary" {
		t.Errorf("dial sequence %v", tr.calls)
	}
	if n := reg.Counter("resilience_client_retries_total").Value(); n != 0 {
		t.Errorf("retries = %d", n)
	}
}

// TestClientFailover: a dead primary fails over to the replica within
// the same attempt sweep.
func TestClientFailover(t *testing.T) {
	clk := &fakeClock{}
	tr := &scriptedTransport{down: map[string]bool{"primary": true}, now: clk.now}
	c, reg, _ := newTestClient(t, clk, tr, nil)
	if _, err := c.Query(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(tr.calls) != 2 || tr.calls[1] != "replica" {
		t.Errorf("dial sequence %v, want primary then replica", tr.calls)
	}
	if n := reg.Counter("resilience_client_failovers_total").Value(); n != 1 {
		t.Errorf("failovers = %d, want 1", n)
	}
}

// TestClientRetrySweeps: both replicas down for the first two sweeps,
// healthy on the third — the Query still succeeds, with jittered sleeps
// between sweeps.
func TestClientRetrySweeps(t *testing.T) {
	clk := &fakeClock{}
	var slept []time.Duration
	sweep := 0
	tr := &scriptedTransport{down: map[string]bool{"primary": true, "replica": true}, now: clk.now}
	c, reg, _ := newTestClient(t, clk, tr, func(cfg *ClientConfig) {
		cfg.Sleep = func(_ context.Context, d time.Duration) {
			slept = append(slept, d)
			sweep++
			if sweep == 2 {
				tr.down["replica"] = false
			}
		}
	})
	if _, err := c.Query(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(slept) != 2 {
		t.Fatalf("slept %v, want two inter-sweep delays", slept)
	}
	want := c.cfg.Backoff.Delay(0)
	if slept[0] != want {
		t.Errorf("first sleep %v, want deterministic %v", slept[0], want)
	}
	if n := reg.Counter("resilience_client_retries_total").Value(); n != 2 {
		t.Errorf("retries = %d, want 2", n)
	}
}

// TestClientOutageReturnsLastError: a query that fails on every
// address in every sweep surfaces the last transport failure — never a
// zero-value or stale snapshot — and a later query reaches the healed
// daemon live.
func TestClientOutageReturnsLastError(t *testing.T) {
	clk := &fakeClock{}
	errLast := errors.New("dial replica: connection refused")
	tr := &scriptedTransport{down: map[string]bool{}, now: clk.now}
	c, _, _ := newTestClient(t, clk, tr, func(cfg *ClientConfig) {
		cfg.Query = func(ctx context.Context, network, addr string) (rcr.Snapshot, error) {
			snap, err := tr.query(ctx, network, addr)
			if err != nil && addr == "replica" {
				err = errLast
			}
			return snap, err
		}
	})
	if _, err := c.Query(context.Background()); err != nil {
		t.Fatal(err)
	}
	tr.down["primary"], tr.down["replica"] = true, true
	tr.calls = nil
	clk.at = 50 * time.Millisecond
	snap, err := c.Query(context.Background())
	if !errors.Is(err, errLast) {
		t.Fatalf("outage returned (%+v, %v), want the last transport error", snap, err)
	}
	if len(tr.calls) != 2*querySweeps {
		t.Errorf("dialed %d times, want every address in each of %d sweeps", len(tr.calls), querySweeps)
	}
	tr.down["primary"], tr.down["replica"] = false, false
	clk.at = 100 * time.Millisecond
	if snap, err = c.Query(context.Background()); err != nil || snap.Now != clk.at {
		t.Fatalf("recovery query = (%v, %v), want a live snapshot at %v", snap.Now, err, clk.at)
	}
}

// TestClientContextCancel: a cancelled context stops the sweep loop
// promptly instead of burning the full retry budget.
func TestClientContextCancel(t *testing.T) {
	clk := &fakeClock{}
	ctx, cancel := context.WithCancel(context.Background())
	tr := &scriptedTransport{down: map[string]bool{"primary": true, "replica": true}, now: clk.now}
	c, _, _ := newTestClient(t, clk, tr, func(cfg *ClientConfig) {
		cfg.Sleep = func(context.Context, time.Duration) { cancel() }
	})
	if _, err := c.Query(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled query returned %v, want context.Canceled", err)
	}
	// One full sweep (2 addrs) before the sleep cancelled; nothing after.
	if len(tr.calls) != 2 {
		t.Errorf("dialed %d times after cancel, want 2", len(tr.calls))
	}
}

// TestClientConfigValidation: clock and addresses are required.
func TestClientConfigValidation(t *testing.T) {
	if _, err := NewClient(ClientConfig{Addrs: []string{"a"}}); err == nil {
		t.Error("client without clock constructed")
	}
	clk := &fakeClock{}
	if _, err := NewClient(ClientConfig{Clock: clk.now}); err == nil {
		t.Error("client without addresses constructed")
	}
}

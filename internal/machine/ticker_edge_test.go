package machine

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// TestAddTickerWhileHeldFiresOnePeriodAfterRelease registers a fast
// ticker while the clock is parked short of a far slower ticker's
// deadline: after the release the new ticker's first fire lands exactly
// one period after the parked instant, and the slow deadline is not
// reached first.
func TestAddTickerWhileHeldFiresOnePeriodAfterRelease(t *testing.T) {
	m := newTestMachine(t)
	// parkAfter adds a ticker whose first fire parks the clock, releases
	// the clock and returns the fire instant and the parking hold.
	parkAfter := func(d time.Duration, release func()) (time.Duration, func()) {
		t.Helper()
		type parking struct {
			at   time.Duration
			hold func()
		}
		parked := make(chan parking, 1)
		id, err := m.AddTicker(d, func(now time.Duration, _ *Snapshot) { parked <- parking{now, m.Hold()} })
		if err != nil {
			t.Fatal(err)
		}
		release()
		select {
		case p := <-parked:
			m.RemoveTicker(id)
			return p.at, p.hold
		case <-time.After(5 * time.Second):
			t.Fatal("ticker never fired")
			return 0, nil
		}
	}

	release := m.Hold()
	var slowFires atomic.Int32
	if _, err := m.AddTicker(time.Second, func(time.Duration, *Snapshot) { slowFires.Add(1) }); err != nil {
		t.Fatal(err)
	}
	// Park at 3 ms, short of the slow ticker's 1 s deadline.
	heldAt, hold := parkAfter(3*time.Millisecond, release)
	firedAt, hold := parkAfter(500*time.Microsecond, hold)
	defer hold()
	if want := heldAt + 500*time.Microsecond; firedAt != want {
		t.Errorf("first fast fire at %v, want exactly %v: one period after the release", firedAt, want)
	}
	if n := slowFires.Load(); n != 0 {
		t.Errorf("slow ticker fired %d times before the fast ticker", n)
	}
}

// TestAddTickerRejectsNonPositivePeriod covers the zero- and
// negative-period rejection (zero alone is covered in machine_test.go).
func TestAddTickerRejectsNonPositivePeriod(t *testing.T) {
	m := newTestMachine(t)
	for _, period := range []time.Duration{0, -time.Nanosecond, -time.Second} {
		if id, err := m.AddTicker(period, func(time.Duration, *Snapshot) {}); err == nil {
			t.Errorf("AddTicker(%v) succeeded with id %d, want error", period, id)
		}
	}
}

// TestRemoveTickerFromOwnCallback removes a ticker from inside its own
// callback. The callback runs with the engine lock released, so this
// must neither deadlock nor re-arm the ticker: it fires exactly once.
func TestRemoveTickerFromOwnCallback(t *testing.T) {
	m := newParkedMachine(t)
	var fires atomic.Int32
	idCh := make(chan int, 1)
	if id, err := m.AddTicker(100*time.Microsecond, func(time.Duration, *Snapshot) {
		fires.Add(1)
		m.RemoveTicker(<-idCh) // self-removal mid-fire
	}); err != nil {
		t.Fatal(err)
	} else {
		idCh <- id
	}

	// Drive ~1 ms of virtual time; an un-removed 100 µs ticker would fire
	// about ten times.
	runOn(t, m, map[int]func(*CoreCtx){
		0: func(ctx *CoreCtx) { ctx.Compute(2.7e6) },
	})
	if n := fires.Load(); n != 1 {
		t.Errorf("self-removing ticker fired %d times, want exactly 1", n)
	}
	if err := m.Err(); err != nil {
		t.Errorf("machine error after self-removal: %v", err)
	}
}

// TestRemoveTickerFromOtherCallback removes ticker B from inside ticker
// A's callback while both are due at the same instant: B must not fire
// after its removal, and the sweep must survive the heap mutation.
func TestRemoveTickerFromOtherCallback(t *testing.T) {
	m := newParkedMachine(t)
	var bFires atomic.Int32
	bID, err := m.AddTicker(200*time.Microsecond, func(time.Duration, *Snapshot) {
		bFires.Add(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	// A has a shorter period, so A's first fire precedes B's and A's
	// later fires share instants with B's deadlines (200 µs multiples).
	if _, err := m.AddTicker(100*time.Microsecond, func(now time.Duration, _ *Snapshot) {
		if now >= 200*time.Microsecond {
			m.RemoveTicker(bID) // idempotent; first call lands at B's own due instant
		}
	}); err != nil {
		t.Fatal(err)
	}
	runOn(t, m, map[int]func(*CoreCtx){
		0: func(ctx *CoreCtx) { ctx.Compute(2.7e6) },
	})
	// At 200 µs B, registered first, fires before A removes it, and never
	// again afterwards.
	if n := bFires.Load(); n != 1 {
		t.Errorf("removed ticker fired %d times, want exactly 1", n)
	}
	if err := m.Err(); err != nil {
		t.Errorf("machine error after cross-removal: %v", err)
	}
}

// TestSameInstantTickersFireInRegistrationOrder registers A (30 ms), B
// (10 ms) and C (30 ms): at 30 ms all three are due, and they fire in the
// order they were added, whatever fires (B's at 10 and 20 ms) moved them
// around the heap before.
func TestSameInstantTickersFireInRegistrationOrder(t *testing.T) {
	m := newParkedMachine(t)
	var at30 []string
	for _, tk := range []struct {
		name   string
		period time.Duration
	}{{"A", 30 * time.Millisecond}, {"B", 10 * time.Millisecond}, {"C", 30 * time.Millisecond}} {
		if _, err := m.AddTicker(tk.period, func(now time.Duration, _ *Snapshot) {
			if now == 30*time.Millisecond {
				at30 = append(at30, tk.name)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	runOn(t, m, map[int]func(*CoreCtx){
		0: func(ctx *CoreCtx) { ctx.Sleep(35 * time.Millisecond) },
	})
	if want := []string{"A", "B", "C"}; !reflect.DeepEqual(at30, want) {
		t.Errorf("fires at 30 ms: %v, want %v (registration order)", at30, want)
	}
}

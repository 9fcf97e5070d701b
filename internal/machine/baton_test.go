package machine

import (
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitOrFatal fails the test if done is not closed within a host timeout:
// every hang a baton bug can cause shows up as one of these.
func waitOrFatal(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s: still waiting after 30 s", what)
	}
}

// own enrolls core id from the test goroutine and runs body on a new
// owner goroutine; the returned channel closes once it has released.
func own(t *testing.T, m *Machine, id int, body func(*CoreCtx)) <-chan struct{} {
	t.Helper()
	ctx, err := m.Enroll(id)
	if err != nil {
		t.Fatalf("Enroll(%d): %v", id, err)
	}
	var wg sync.WaitGroup
	Charge(t, &wg, ctx, body)
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	return done
}

// awaitBlocked returns once core id has entered a charging call.
func awaitBlocked(m *Machine, id int) {
	for blocked := false; !blocked; runtime.Gosched() {
		m.mu.Lock()
		blocked = m.cores[id].state != coreRunning
		m.mu.Unlock()
	}
}

// TestWokenOwnersRunOneAtATimeInIDOrder wakes all sixteen cores at one
// instant, three ways — a shared sleep deadline, equal work items
// completing together, and one condition turning true for fifteen
// spinners — and has every owner append its core id to a slice with no
// synchronisation of its own before blocking again. The slice must read
// 0..15 after each wake-up, and the test must be clean under -race: the
// only thing ordering two owners' appends is the baton hand-off itself.
func TestWokenOwnersRunOneAtATimeInIDOrder(t *testing.T) {
	m := newTestMachine(t)
	n := m.Config().Cores()
	var order []int // appended to by every owner, deliberately unguarded
	var flag atomic.Bool
	body := func(c *CoreCtx) {
		// Enroll orders nothing: until the first charging call the
		// sixteen owners run side by side, so none touches the slice.
		c.Sleep(time.Millisecond)
		order = append(order, c.c.id)
		c.Compute(2.7e6)
		order = append(order, c.c.id)
		if c.c.id == 0 {
			c.Sleep(time.Millisecond)
			flag.Store(true)
			order = append(order, c.c.id)
			c.Sleep(time.Millisecond)
			return
		}
		c.SpinUntil(flag.Load)
		order = append(order, c.c.id)
	}
	// The clock is parked until all sixteen are enrolled, so their first
	// sleeps share one deadline however slowly the goroutines start.
	release := m.Hold()
	var done []<-chan struct{}
	for id := n - 1; id >= 0; id-- {
		done = append(done, own(t, m, id, body))
	}
	release()
	for _, d := range done {
		waitOrFatal(t, d, "owner finishing")
	}
	var want []int
	for round := 0; round < 3; round++ {
		for id := 0; id < n; id++ {
			want = append(want, id)
		}
	}
	if !slices.Equal(order, want) {
		t.Errorf("owners ran in order\n%v, want\n%v", order, want)
	}
}

// TestStopAbortsQueuedOwners stops the machine while one owner holds the
// baton in host code and fifteen woken ones are queued behind it. Stop
// must return, every queued owner must unwind with Abort out of the
// charging call it was in, and the baton holder must meet the stop at its
// next one: sixteen aborts, no goroutine left parked on a wake channel.
func TestStopAbortsQueuedOwners(t *testing.T) {
	m, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := m.Config().Cores()
	holding := make(chan struct{})
	proceed := make(chan struct{})
	var aborts atomic.Int32
	var wg sync.WaitGroup
	release := m.Hold() // one deadline for all sixteen first sleeps
	for id := 0; id < n; id++ {
		ctx, err := m.Enroll(id)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(c *CoreCtx) {
			defer wg.Done()
			defer func() {
				r := recover()
				if a, ok := r.(Abort); ok && errors.Is(a.Err, ErrStopped) {
					aborts.Add(1)
				} else if r != nil {
					panic(r)
				}
			}()
			c.Sleep(time.Millisecond) // all due at once; core 0 resumes first
			if c.c.id == 0 {
				close(holding)
				<-proceed
			}
			c.Sleep(time.Millisecond)
		}(ctx)
	}
	release()
	waitOrFatal(t, holding, "core 0 taking the baton")
	m.mu.Lock()
	queued := len(m.runQ)
	m.mu.Unlock()
	if queued != n-1 {
		t.Fatalf("%d owners queued behind core 0, want %d", queued, n-1)
	}
	stopped := make(chan struct{})
	go func() { m.Stop(); close(stopped) }()
	waitOrFatal(t, stopped, "Stop with fifteen owners queued")
	close(proceed)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	waitOrFatal(t, done, "owners unwinding after Stop")
	if got := aborts.Load(); int(got) != n {
		t.Errorf("%d owners unwound with Abort{ErrStopped}, want %d", got, n)
	}
}

// TestEnrollDoesNotWaitForTheBaton pins the contract bench's probeCharge,
// refmodel's player and the duty-cycle experiment rely on: Enroll returns
// at once with the core running, whoever else is. Here another owner sits
// in host code until the newly enrolled core's owner lets it go; an
// Enroll that queued for the baton would never get there.
func TestEnrollDoesNotWaitForTheBaton(t *testing.T) {
	m := newTestMachine(t)
	holding := make(chan struct{})
	proceed := make(chan struct{})
	done := own(t, m, 1, func(c *CoreCtx) {
		c.Sleep(time.Millisecond)
		close(holding)
		<-proceed
	})
	waitOrFatal(t, holding, "core 1 taking the baton")
	ctx, err := m.Enroll(0)
	if err != nil {
		t.Fatal(err)
	}
	close(proceed) // host code of core 0, running beside core 1's
	ctx.Compute(2.7e6)
	ctx.Release()
	waitOrFatal(t, done, "core 1 finishing")
}

// TestWhenQuiescentRunsBetweenOwners has an outside goroutine read, with
// no synchronisation of its own, a variable an owner writes in host code.
// WhenQuiescent may run the read only once that owner has blocked, so it
// sees the final value — and -race sees a hand-off edge, not a race.
func TestWhenQuiescentRunsBetweenOwners(t *testing.T) {
	m := newTestMachine(t)
	holding := make(chan struct{})
	proceed := make(chan struct{})
	inHost := false // written by the owner, read by the outsider, unguarded
	ran := make(chan bool, 1)
	done := own(t, m, 0, func(c *CoreCtx) {
		c.Sleep(time.Millisecond)
		inHost = true
		close(holding)
		<-proceed
		inHost = false
		c.SpinUntil(func() bool { return len(ran) > 0 })
	})
	waitOrFatal(t, holding, "core 0 taking the baton")
	go m.WhenQuiescent(func() { ran <- inHost })
	close(proceed)
	waitOrFatal(t, done, "core 0 woken by the outsider's change")
	if <-ran {
		t.Error("WhenQuiescent ran while an owner was in host code")
	}
}

// TestWhenQuiescentWhileOwnerStepsInline has an outsider wait in
// WhenQuiescent while the only owner is in host code, then lets that owner
// charge work in a loop until the outsider's fn tells it to stop. Every
// charging call blocks the last running core and steps the clock inline,
// resuming the same owner with the lock held throughout: the outsider gets
// in only because the stepper stops for it at quiescence. A stepper that
// did not would run the loop until the watchdog aborted the machine.
func TestWhenQuiescentWhileOwnerStepsInline(t *testing.T) {
	m := newTestMachine(t)
	var stop atomic.Bool
	var aborted error
	proceed := make(chan struct{})
	done := own(t, m, 0, func(c *CoreCtx) {
		defer func() {
			if a, ok := recover().(Abort); ok {
				aborted = a
			}
		}()
		<-proceed
		for !stop.Load() {
			c.Compute(2.7e5) // 100 µs
		}
	})
	returned := make(chan struct{})
	go func() {
		m.WhenQuiescent(func() { stop.Store(true) })
		close(returned)
	}()
	for waiting := false; !waiting; runtime.Gosched() {
		m.mu.Lock()
		waiting = m.outsiders == 1 // before core 0 charges anything
		m.mu.Unlock()
	}
	close(proceed)
	waitOrFatal(t, returned, "WhenQuiescent while core 0 steps inline")
	waitOrFatal(t, done, "core 0 seeing the outsider's change")
	if aborted != nil || m.Err() != nil {
		t.Errorf("core 0 ended by %v (machine error %v), want the outsider's flag", aborted, m.Err())
	}
}

// TestOneStepperAtATime counts the goroutines inside a ticker callback or
// the step hook at once; it must never exceed one. The callback enrolls a
// core — allowed, the lock is released around it — whose owner charges
// work and so blocks the last running core while the callback is still in
// flight. Only the stepping claim, held across the callback, keeps that
// owner from starting a second stepping loop beside the first. The clock
// is driven both ways: by the engine goroutine after a Hold release, and
// by an owner stepping inline.
func TestOneStepperAtATime(t *testing.T) {
	for _, drive := range []string{"engine", "inline"} {
		t.Run(drive, func(t *testing.T) {
			m := newTestMachine(t)
			var inflight, peak atomic.Int32
			enter := func() {
				n := inflight.Add(1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
			}
			m.SetStepHook(func(StepRecord) { enter(); inflight.Add(-1) })
			var fired atomic.Bool
			late := make(chan struct{})
			if _, err := m.AddTicker(100*time.Microsecond, func(time.Duration, *Snapshot) {
				enter()
				defer inflight.Add(-1)
				if fired.Swap(true) {
					return
				}
				ctx, err := m.Enroll(1)
				if err != nil {
					t.Error(err)
					close(late)
					return
				}
				var wg sync.WaitGroup
				Charge(t, &wg, ctx, func(c *CoreCtx) { c.Compute(2.7e5) })
				go func() {
					wg.Wait()
					close(late)
				}()
				awaitBlocked(m, 1) // still in flight when core 1 blocks
			}); err != nil {
				t.Fatal(err)
			}
			var release func()
			if drive == "engine" {
				release = m.Hold()
			}
			done := own(t, m, 0, func(c *CoreCtx) { c.Compute(2.7e6) }) // 1 ms
			if release != nil {
				// Core 0's call stops at the hold; the engine goroutine
				// steps from the release on.
				awaitBlocked(m, 0)
				release()
			}
			waitOrFatal(t, late, "the late owner finishing")
			waitOrFatal(t, done, "core 0 finishing")
			if !fired.Load() || peak.Load() != 1 {
				t.Errorf("ticker fired: %v; peak of %d goroutines stepping at once, want 1", fired.Load(), peak.Load())
			}
		})
	}
}

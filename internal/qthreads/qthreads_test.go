package qthreads

import (
	"errors"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// newStack starts a runtime of the given width on an M620 with a
// ten-minute watchdog.
func newStack(t *testing.T, workers int) (*machine.Machine, *Runtime) {
	t.Helper()
	cfg := machine.M620()
	cfg.VirtualTimeLimit = 10 * time.Minute
	return newStackOn(t, cfg, Config{Workers: workers})
}

// clocks holds, for each runtime newStackOn started, the release of its
// machine's parked clock, handed from one run to the next.
var clocks sync.Map // *Runtime → chan func()

// newStackOn builds a machine, parks its clock as core.New does, and
// starts a runtime on it that publishes its qthreads_* metrics (into a
// registry of its own unless cfg names one). The clock moves only
// inside run.
func newStackOn(t *testing.T, mcfg machine.Config, cfg Config) (*machine.Machine, *Runtime) {
	t.Helper()
	m, err := machine.New(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewRegistry()
	}
	clock := make(chan func(), 1)
	clock <- m.Hold()
	rt, err := New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	clocks.Store(rt, clock)
	return m, rt
}

// run runs fn as a root task of a runtime from newStackOn. It starts at
// the instant the clock is parked on and returns with the clock parked
// at its completion, so a test reads time and energy that only the model
// decided. Runs from several goroutines chain too: RunHeld serializes
// them, and each takes the clock from the one before.
func run(rt *Runtime, fn Task) error {
	c, _ := clocks.Load(rt)
	clock := c.(chan func())
	taken := false
	end, err := rt.RunHeld(fn, func() { taken = true; (<-clock)() })
	if taken { // else the runtime was shut down and left the clock alone
		clock <- end
	}
	return err
}

// nodeEnergy is the exact cumulative energy of every socket.
func nodeEnergy(m *machine.Machine) units.Joules {
	var e units.Joules
	for s := 0; s < m.Config().Sockets; s++ {
		e += m.SocketEnergy(s)
	}
	return e
}

// counters reads the runtime's scheduler counters: tasks executed, local
// pops, steals, steal misses and throttle stops.
func counters(rt *Runtime) [5]uint64 {
	met := rt.met
	return [5]uint64{met.tasks.Value(), met.localPops.Value(), met.steals.Value(), met.stealMisses.Value(), met.throttleStops.Value()}
}

func TestRunSimpleTask(t *testing.T) {
	_, rt := newStack(t, 4)
	var ran atomic.Bool
	err := run(rt, func(tc *TC) {
		tc.Compute(1000)
		ran.Store(true)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ran.Load() {
		t.Error("root task did not run")
	}
}

func TestRunAdvancesVirtualTime(t *testing.T) {
	m, rt := newStack(t, 2)
	before := m.Now()
	if err := run(rt, func(tc *TC) { tc.Compute(2.7e8) }); err != nil { // 100 ms
		t.Fatal(err)
	}
	elapsed := m.Now() - before
	if elapsed < 95*time.Millisecond || elapsed > 120*time.Millisecond {
		t.Errorf("virtual elapsed = %v, want ~100ms", elapsed)
	}
}

func TestSpawnSyncFibonacci(t *testing.T) {
	_, rt := newStack(t, 16)
	// Recursive fib with real task recursion; answers must be exact, which
	// proves spawn/sync joins correctly under stealing.
	var fib func(tc *TC, n int, out *int64)
	fib = func(tc *TC, n int, out *int64) {
		tc.Compute(50)
		if n < 2 {
			*out = int64(n)
			return
		}
		var a, b int64
		tc.Spawn(func(tc *TC) { fib(tc, n-1, &a) })
		fib(tc, n-2, &b)
		tc.Sync()
		*out = a + b
	}
	var result int64
	if err := run(rt, func(tc *TC) { fib(tc, 18, &result) }); err != nil {
		t.Fatal(err)
	}
	if result != 2584 {
		t.Errorf("fib(18) = %d, want 2584", result)
	}
}

func TestParallelForCoversAllIndices(t *testing.T) {
	_, rt := newStack(t, 16)
	const n = 10_000
	hits := make([]atomic.Int32, n)
	err := run(rt, func(tc *TC) {
		tc.ParallelFor(n, 64, func(tc *TC, lo, hi int) {
			tc.Compute(float64(hi-lo) * 10)
			for i := lo; i < hi; i++ {
				hits[i].Add(1)
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Fatalf("index %d executed %d times", i, got)
		}
	}
}

func TestParallelForDefaultChunk(t *testing.T) {
	_, rt := newStack(t, 8)
	var total atomic.Int64
	err := run(rt, func(tc *TC) {
		tc.ParallelFor(1000, 0, func(tc *TC, lo, hi int) {
			total.Add(int64(hi - lo))
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if total.Load() != 1000 {
		t.Errorf("covered %d indices, want 1000", total.Load())
	}
}

func TestParallelForEmpty(t *testing.T) {
	_, rt := newStack(t, 2)
	err := run(rt, func(tc *TC) {
		tc.ParallelFor(0, 10, func(tc *TC, lo, hi int) {
			t.Error("body ran for empty range")
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWorkStealingAcrossShepherds(t *testing.T) {
	rec := NewRecorder(0)
	cfg := machine.M620()
	cfg.VirtualTimeLimit = 10 * time.Minute
	_, rt := newStackOn(t, cfg, Config{Workers: 16, Tracer: rec})
	err := run(rt, func(tc *TC) {
		// Spawn many tasks from one worker (all land on shepherd 0);
		// socket-1 workers can only get them by stealing.
		for i := 0; i < 200; i++ {
			tc.Spawn(func(tc *TC) { tc.Compute(1e6) })
		}
		tc.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
	steals := rt.met.steals.Value()
	executedOnSocket1 := 0
	for _, e := range rec.Events() {
		if e.Kind == EvTaskStart && e.Worker >= 8 {
			executedOnSocket1++
		}
	}
	if steals == 0 {
		t.Error("no steals recorded")
	}
	if executedOnSocket1 == 0 {
		t.Error("socket 1 executed nothing despite idle workers")
	}
}

func TestGroupWait(t *testing.T) {
	_, rt := newStack(t, 8)
	var sum atomic.Int64
	err := run(rt, func(tc *TC) {
		g := tc.NewGroup()
		for i := 1; i <= 100; i++ {
			i := i
			g.Spawn(tc, func(tc *TC) {
				tc.Compute(100)
				sum.Add(int64(i))
			})
		}
		g.Wait(tc)
		if got := sum.Load(); got != 5050 {
			t.Errorf("sum after Wait = %d, want 5050", got)
		}
		if n := g.n.Load(); n != 0 {
			t.Errorf("pending after Wait = %d", n)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRegionEndJoinsStragglers(t *testing.T) {
	// Spawned tasks with no Sync must still complete before Run returns
	// (implicit join at region end).
	_, rt := newStack(t, 8)
	var done atomic.Int64
	err := run(rt, func(tc *TC) {
		for i := 0; i < 50; i++ {
			tc.Spawn(func(tc *TC) {
				tc.Compute(5e5)
				done.Add(1)
			})
		}
		// No Sync here.
	})
	if err != nil {
		t.Fatal(err)
	}
	if done.Load() != 50 {
		t.Errorf("only %d/50 stragglers completed before Run returned", done.Load())
	}
}

func TestNestedSpawns(t *testing.T) {
	_, rt := newStack(t, 16)
	var leaves atomic.Int64
	err := run(rt, func(tc *TC) {
		for i := 0; i < 8; i++ {
			tc.Spawn(func(tc *TC) {
				for j := 0; j < 8; j++ {
					tc.Spawn(func(tc *TC) {
						tc.Compute(1e4)
						leaves.Add(1)
					})
				}
				tc.Sync()
			})
		}
		tc.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
	if leaves.Load() != 64 {
		t.Errorf("leaves = %d, want 64", leaves.Load())
	}
}

func TestRunSequentialReuse(t *testing.T) {
	m, rt := newStack(t, 4)
	for i := 0; i < 3; i++ {
		if err := run(rt, func(tc *TC) { tc.Compute(1e6) }); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if m.Err() != nil {
		t.Errorf("machine error after reuse: %v", m.Err())
	}
}

func TestWorkerCountValidation(t *testing.T) {
	cfg := machine.M620()
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	for _, bad := range []int{-1, 17} {
		if _, err := New(m, Config{Workers: bad}); err == nil {
			t.Errorf("New with %d workers succeeded", bad)
		}
	}
	// Default fills the machine.
	rt, err := New(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	if rt.Workers() != 16 {
		t.Errorf("default Workers = %d, want 16", rt.Workers())
	}
	if len(rt.shepherds) != 2 {
		t.Errorf("shepherds = %d, want 2", len(rt.shepherds))
	}
}

func TestPartialWorkersEnrollment(t *testing.T) {
	m, rt := newStack(t, 12)
	if rt.Workers() != 12 {
		t.Fatalf("Workers = %d", rt.Workers())
	}
	// An enrolled core refuses a second owner; the other four take one.
	enrolled := 0
	for id := 0; id < m.Config().Cores(); id++ {
		ctx, err := m.Enroll(id)
		if err != nil {
			enrolled++
			continue
		}
		ctx.Release()
	}
	if enrolled != 12 {
		t.Errorf("enrolled cores = %d, want 12", enrolled)
	}
}

func TestScatterPinning(t *testing.T) {
	// Workers round-robin across sockets: 8 workers occupy 4 cores on
	// each socket.
	mc := machine.M620()
	for i, want := range map[int]int{0: 0, 1: 8, 2: 1, 3: 9, 7: 11} {
		if got := coreFor(i, mc); got != want {
			t.Errorf("coreFor(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestShutdownIdempotentAndRunAfterShutdown(t *testing.T) {
	_, rt := newStack(t, 2)
	rt.Shutdown()
	rt.Shutdown()
	if err := run(rt, func(tc *TC) {}); err == nil {
		t.Error("Run after Shutdown succeeded")
	}
}

func TestThrottleLimitsActiveWorkers(t *testing.T) {
	_, rt := newStack(t, 16)
	rt.SetThrottle(true, 6) // 12 active node-wide
	maxSeen := make([]int32, 2)
	err := run(rt, func(tc *TC) {
		g := tc.NewGroup()
		for i := 0; i < 400; i++ {
			g.Spawn(tc, func(tc *TC) {
				for s, sh := range rt.shepherds {
					if a := sh.active.Load(); a > atomic.LoadInt32(&maxSeen[s]) {
						atomic.StoreInt32(&maxSeen[s], a)
					}
				}
				tc.Compute(2e6)
			})
		}
		g.Wait(tc)
	})
	if err != nil {
		t.Fatal(err)
	}
	if stops := rt.met.throttleStops.Value(); stops == 0 {
		t.Error("throttling never engaged")
	}
	// The gate races allow brief overshoot; it must stay well below the
	// full 8 per shepherd.
	for s, mx := range maxSeen {
		if mx > 7 {
			t.Errorf("shepherd %d max active %d under limit 6", s, mx)
		}
	}
	rt.SetThrottle(false, 8)
}

func TestThrottleReducesPower(t *testing.T) {
	runPower := func(throttle bool) float64 {
		m, rt := newStack(t, 16)
		defer rt.Shutdown()
		if throttle {
			rt.SetThrottle(true, 6)
		}
		before := nodeEnergy(m)
		t0 := m.Now()
		err := run(rt, func(tc *TC) {
			g := tc.NewGroup()
			for i := 0; i < 320; i++ {
				g.Spawn(tc, func(tc *TC) { tc.Compute(5e6) })
			}
			g.Wait(tc)
		})
		if err != nil {
			t.Fatal(err)
		}
		dt := (m.Now() - t0).Seconds()
		return float64(nodeEnergy(m)-before) / dt
	}
	full := runPower(false)
	throttled := runPower(true)
	if throttled >= full {
		t.Errorf("throttled power %.1f W >= full power %.1f W", throttled, full)
	}
	// Expect roughly the paper's magnitude: ~6-15 W saved for 4 throttled
	// threads on a compute-bound load.
	if full-throttled < 3 {
		t.Errorf("throttle saving only %.1f W", full-throttled)
	}
}

func TestThrottleDisabledNoStops(t *testing.T) {
	_, rt := newStack(t, 16)
	err := run(rt, func(tc *TC) {
		tc.ParallelFor(1000, 10, func(tc *TC, lo, hi int) {
			tc.Compute(float64(hi-lo) * 1e4)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if stops := rt.met.throttleStops.Value(); stops != 0 {
		t.Errorf("workers recorded %d throttle stops with throttling off", stops)
	}
}

func TestRunAbortedByWatchdog(t *testing.T) {
	cfg := machine.M620()
	cfg.VirtualTimeLimit = 20 * time.Millisecond
	_, rt := newStackOn(t, cfg, Config{Workers: 2})
	err := run(rt, func(tc *TC) { tc.Compute(2.7e9) }) // 1 s >> 20 ms limit
	if !errors.Is(err, ErrAborted) {
		t.Errorf("Run = %v, want ErrAborted", err)
	}
}

func TestIdleRuntimeParksCheaply(t *testing.T) {
	// With workers idle and one core driving time on socket 1, socket 0's
	// power should be near its parked floor: its four workers parked
	// (after their spin period), its other four cores unowned.
	m, rt := newStack(t, 8) // cores 0-3 and 8-11
	var mu sync.Mutex
	var p0 float64 // socket 0's power in the last step
	m.SetStepHook(func(r machine.StepRecord) {
		mu.Lock()
		p0 = r.Sockets[0].Power
		mu.Unlock()
	})
	ctx, err := m.Enroll(12)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer ctx.Release()
		ctx.Compute(2.7e8) // 100 ms on socket 1
	}()
	// Core 12's load alone moves the clock, and the clock stops when
	// that core is released: nothing else has a deadline.
	c, _ := clocks.Load(rt)
	(<-c.(chan func()))()
	<-done
	mu.Lock()
	defer mu.Unlock()
	parked := float64(m.Config().Power.PredictSocketPower(0, 0, 0, 0, 4, 4, 0))
	if math.Abs(p0-parked)/parked > 0.25 {
		t.Errorf("idle worker socket draws %.1f W, want near parked %.1f W", p0, parked)
	}
}

func TestConcurrentRunsSerialize(t *testing.T) {
	_, rt := newStack(t, 8)
	var inFlight, maxInFlight atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := run(rt, func(tc *TC) {
				c := inFlight.Add(1)
				for {
					m := maxInFlight.Load()
					if c <= m || maxInFlight.CompareAndSwap(m, c) {
						break
					}
				}
				tc.Compute(1e6)
				inFlight.Add(-1)
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if maxInFlight.Load() != 1 {
		t.Errorf("%d root tasks overlapped; Run must serialize", maxInFlight.Load())
	}
}

func TestZeroCostConfig(t *testing.T) {
	// A runtime with all scheduler costs zero is legal (pure algorithmic
	// accounting) and must still run correctly.
	_, rt := newStack(t, 8)
	var n atomic.Int64
	err := run(rt, func(tc *TC) {
		g := tc.NewGroup()
		for i := 0; i < 100; i++ {
			g.Spawn(tc, func(tc *TC) { tc.Compute(1e5); n.Add(1) })
		}
		g.Wait(tc)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n.Load() != 100 {
		t.Errorf("ran %d", n.Load())
	}
}

func TestThrottleLimitFloor(t *testing.T) {
	_, rt := newStack(t, 4)
	rt.SetThrottle(true, 0) // clamps to 1
	if limit := rt.throttleLimit.Load(); limit != 1 {
		t.Errorf("limit = %d, want floor 1", limit)
	}
	// Work must still complete with the tightest limit.
	var n atomic.Int64
	err := run(rt, func(tc *TC) {
		g := tc.NewGroup()
		for i := 0; i < 20; i++ {
			g.Spawn(tc, func(tc *TC) { tc.Compute(1e5); n.Add(1) })
		}
		g.Wait(tc)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n.Load() != 20 {
		t.Errorf("ran %d under limit 1", n.Load())
	}
	rt.SetThrottle(false, 8)
}

// TestRootAlwaysDequeuedBySameWorker builds the stack afresh twenty times
// and runs the same spawning root on it: the root lands while all sixteen
// workers are blocked, every one of them is woken, and the baton's core-id
// order — not whichever goroutine the host scheduled first — decides that
// worker 0 takes it. The scheduler trace (every task start and end, steal
// and park, by worker and virtual time) and the scheduler counters, which
// also count every local pop and steal miss, must then repeat exactly.
func TestRootAlwaysDequeuedBySameWorker(t *testing.T) {
	cfg := machine.M620()
	cfg.VirtualTimeLimit = 10 * time.Minute
	var first []Event
	var firstCounts [5]uint64
	for n := 0; n < 20; n++ {
		rec := NewRecorder(0)
		_, rt := newStackOn(t, cfg, Config{Workers: 16, Tracer: rec})
		rootWorker := -1
		err := run(rt, func(tc *TC) {
			rootWorker = tc.w.id
			for i := 0; i < 64; i++ {
				tc.Spawn(func(tc *TC) { tc.Compute(2.7e5) })
			}
			tc.Sync()
		})
		if err != nil {
			t.Fatal(err)
		}
		if rootWorker != 0 {
			t.Fatalf("run %d: root dequeued by worker %d, want 0", n, rootWorker)
		}
		rt.Shutdown() // the root's own worker is still counting it as executed
		events, counts := rec.Events(), counters(rt)
		if first == nil {
			first, firstCounts = events, counts
			continue
		}
		if counts != firstCounts {
			t.Fatalf("run %d: scheduler counters %v, first run %v", n, counts, firstCounts)
		}
		if !slices.Equal(events, first) {
			t.Fatalf("run %d: scheduler trace of %d events differs from the first run's %d", n, len(events), len(first))
		}
	}
}

// TestShutdownDuringRunReturns shuts the runtime down from outside while
// a run has every worker busy: the flag lands at the next instant all of
// them are blocked, they drain out, and both Shutdown and Run return.
func TestShutdownDuringRunReturns(t *testing.T) {
	_, rt := newStack(t, 16)
	started := make(chan struct{})
	runDone := make(chan error, 1)
	go func() {
		runDone <- run(rt, func(tc *TC) {
			close(started)
			for i := 0; i < 4096; i++ {
				tc.Spawn(func(tc *TC) { tc.Compute(2.7e7) })
			}
			tc.Sync()
		})
	}()
	<-started
	down := make(chan struct{})
	go func() { rt.Shutdown(); close(down) }()
	select {
	case <-down:
	case <-time.After(30 * time.Second):
		t.Fatal("Shutdown did not return")
	}
	select {
	case <-runDone:
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return after Shutdown")
	}
}

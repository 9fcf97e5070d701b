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
)

func newStack(t *testing.T, workers int) (*machine.Machine, *Runtime) {
	t.Helper()
	cfg := machine.M620()
	cfg.VirtualTimeLimit = 10 * time.Minute
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	rt, err := New(m, Config{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	return m, rt
}

func TestRunSimpleTask(t *testing.T) {
	_, rt := newStack(t, 4)
	var ran atomic.Bool
	err := rt.Run(func(tc *TC) {
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
	if err := rt.Run(func(tc *TC) { tc.Compute(2.7e8) }); err != nil { // 100 ms
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
	if err := rt.Run(func(tc *TC) { fib(tc, 18, &result) }); err != nil {
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
	err := rt.Run(func(tc *TC) {
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
	err := rt.Run(func(tc *TC) {
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
	err := rt.Run(func(tc *TC) {
		tc.ParallelFor(0, 10, func(tc *TC, lo, hi int) {
			t.Error("body ran for empty range")
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWorkStealingAcrossShepherds(t *testing.T) {
	_, rt := newStack(t, 16)
	err := rt.Run(func(tc *TC) {
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
	stats := rt.Stats()
	steals := uint64(0)
	executedOnSocket1 := uint64(0)
	for i, s := range stats {
		steals += s.Steals
		if i >= 8 {
			executedOnSocket1 += s.TasksExecuted
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
	err := rt.Run(func(tc *TC) {
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
	err := rt.Run(func(tc *TC) {
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
	err := rt.Run(func(tc *TC) {
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
		if err := rt.Run(func(tc *TC) { tc.Compute(1e6) }); err != nil {
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
	if got := m.EnrolledCount(); got != 12 {
		t.Errorf("EnrolledCount = %d, want 12", got)
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
	if err := rt.Run(func(tc *TC) {}); err == nil {
		t.Error("Run after Shutdown succeeded")
	}
}

func TestThrottleLimitsActiveWorkers(t *testing.T) {
	_, rt := newStack(t, 16)
	rt.SetThrottle(true, 6) // 12 active node-wide
	maxSeen := make([]int32, 2)
	err := rt.Run(func(tc *TC) {
		g := tc.NewGroup()
		for i := 0; i < 400; i++ {
			g.Spawn(tc, func(tc *TC) {
				for s, sh := range tc.Runtime().shepherds {
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
	stats := rt.Stats()
	stops := uint64(0)
	for _, s := range stats {
		stops += s.ThrottleStops
	}
	if stops == 0 {
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
		before := m.TotalEnergy()
		t0 := m.Now()
		err := rt.Run(func(tc *TC) {
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
		return float64(m.TotalEnergy()-before) / dt
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
	err := rt.Run(func(tc *TC) {
		tc.ParallelFor(1000, 10, func(tc *TC, lo, hi int) {
			tc.Compute(float64(hi-lo) * 1e4)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range rt.Stats() {
		if s.ThrottleStops != 0 {
			t.Errorf("worker %d recorded %d throttle stops with throttling off", i, s.ThrottleStops)
		}
	}
}

func TestRunAbortedByWatchdog(t *testing.T) {
	cfg := machine.M620()
	cfg.VirtualTimeLimit = 20 * time.Millisecond
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	rt, err := New(m, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	err = rt.Run(func(tc *TC) { tc.Compute(2.7e9) }) // 1 s >> 20 ms limit
	if !errors.Is(err, ErrAborted) {
		t.Errorf("Run = %v, want ErrAborted", err)
	}
}

func TestIdleRuntimeParksCheaply(t *testing.T) {
	// With workers idle and one core driving time on socket 1, socket 0's
	// power should be near its parked floor: its four workers parked
	// (after their spin period), its other four cores unowned.
	cfg := machine.M620()
	cfg.VirtualTimeLimit = 10 * time.Minute
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	rt, err := New(m, Config{Workers: 8}) // cores 0-3 and 8-11
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
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
	<-done
	snap := m.Snapshot()
	p0 := float64(snap.Sockets[0].Power)
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
			err := rt.Run(func(tc *TC) {
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
	cfg := machine.M620()
	cfg.VirtualTimeLimit = 10 * time.Minute
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	rt, err := New(m, Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	var n atomic.Int64
	err = rt.Run(func(tc *TC) {
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
	err := rt.Run(func(tc *TC) {
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
// worker 0 takes it. The per-worker counters, which record every pop and
// steal that followed, must then repeat exactly as well.
func TestRootAlwaysDequeuedBySameWorker(t *testing.T) {
	var first []WorkerStats
	for run := 0; run < 20; run++ {
		_, rt := newStack(t, 16)
		rootWorker := -1
		err := rt.Run(func(tc *TC) {
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
			t.Fatalf("run %d: root dequeued by worker %d, want 0", run, rootWorker)
		}
		rt.Shutdown() // the root's own worker is still counting it as executed
		stats := rt.Stats()
		if first == nil {
			first = stats
		} else if !slices.Equal(stats, first) {
			t.Fatalf("run %d: worker counters\n%+v, first run\n%+v", run, stats, first)
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
		runDone <- rt.Run(func(tc *TC) {
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

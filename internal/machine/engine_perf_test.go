package machine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// steadyStateLoad enrolls a background mix that keeps the engine stepping
// through every index it maintains: a compute/memory busy core, two cores
// contending one atomic line, and a deadline spinner. It returns a stop
// function that winds the workers down.
func steadyStateLoad(tb testing.TB, m *Machine) (stop func()) {
	tb.Helper()
	var done atomic.Bool
	line := m.NewLine(40, 0.5, 0.85)
	var wg sync.WaitGroup
	bg := func(id int, body func(*CoreCtx)) {
		ctx, err := m.Enroll(id)
		if err != nil {
			tb.Fatalf("Enroll(%d): %v", id, err)
		}
		Charge(tb, &wg, ctx, func(c *CoreCtx) {
			for !done.Load() {
				body(c)
			}
		})
	}
	// The spin condition is hoisted out of the loop: a fresh closure per
	// SpinFor call escapes into the core and would count as a (worker-side)
	// allocation per iteration.
	spinDone := func() bool { return done.Load() }
	bg(1, func(ctx *CoreCtx) { ctx.Execute(Work{Ops: 2.7e6, Bytes: 1e6, Overlap: 0.5}) })
	bg(2, func(ctx *CoreCtx) { ctx.Atomic(line, 1000) })
	bg(3, func(ctx *CoreCtx) { ctx.Atomic(line, 1000) })
	bg(4, func(ctx *CoreCtx) { ctx.SpinFor(spinDone, time.Millisecond) })
	return func() {
		done.Store(true)
		m.Kick()
		wg.Wait()
	}
}

// TestEngineStepAllocs is the zero-allocation regression gate for the
// engine's steady state, on both of its paths: with a ticker firing,
// charging a long work item (hundreds of MaxStep quanta) must not
// allocate, whether a busy/atomic/spin mix beside it changes some core's
// state every step (every step replans) or three long items beside it
// change nothing (every step reuses the plan). The old scan-per-step
// engine allocated several slices per quantum, i.e. thousands per run
// measured here.
func TestEngineStepAllocs(t *testing.T) {
	// ~1e9 ops at 2.7 GHz is ~370 ms of virtual time = ~370 MaxStep quanta
	// (plus as many ticker fires and, on the replanning path, background
	// wake/sleep cycles) per measured call. AllocsPerRun's warm-up call
	// grows every scratch buffer, heap and pool to its steady-state size.
	const steps, runs = 370.0, 5
	for _, path := range []struct {
		name string
		load func(testing.TB, *Machine) (stop func())
	}{
		{"replanning", steadyStateLoad},
		{"reusing", func(tb testing.TB, m *Machine) func() {
			quiescentLoad(tb, m, 3, (runs+1)*steps)
			return func() {} // ends with the machine
		}},
	} {
		t.Run(path.name, func(t *testing.T) {
			m := newTestMachine(t)
			if _, err := m.AddTicker(100*time.Microsecond, func(time.Duration, *Snapshot) {}); err != nil {
				t.Fatal(err)
			}
			fg, err := m.Enroll(0)
			if err != nil {
				t.Fatal(err)
			}
			// The foreground core enrolls first (so the load cannot run
			// ahead of it) and releases first (so the load can wind down).
			defer path.load(t, m)()
			defer fg.Release()

			allocs := testing.AllocsPerRun(runs, func() {
				fg.Execute(Work{Ops: 1e9})
			})
			// Tolerate a handful of runtime-internal allocations (sudog
			// cache refills and the like); the engine's own per-step
			// allocations would show up as hundreds per run.
			if allocs > 10 {
				t.Errorf("engine steady state allocates: %.0f allocs per run (%.3f per step), want 0",
					allocs, allocs/steps)
			}
		})
	}
}

// TestPlanReusedAcrossQuiescentSteps pins the point of the plan cache,
// which no bit-exact comparison can see: a step in which no core changed
// state must leave the plan valid, so the next one reuses it. One hundred
// MaxStep quanta of work beside three longer items may invalidate the
// plan at its own completion and nowhere else.
func TestPlanReusedAcrossQuiescentSteps(t *testing.T) {
	m := newTestMachine(t)
	var steps, valid int
	m.SetStepHook(func(StepRecord) { // the stepper, lock held
		steps++
		if m.planDirty == 0 {
			valid++
		}
	})
	fg, err := m.Enroll(0)
	if err != nil {
		t.Fatal(err)
	}
	quiescentLoad(t, m, 3, 100)
	fg.Execute(Work{Ops: 100 * 2.7e6})
	m.Stop()
	if steps != 100 || valid != 99 {
		t.Errorf("%d steps, %d of which left the plan valid; want 100 and 99", steps, valid)
	}
}

// TestTickerCoalescesOvershoot exercises fireTickersLocked's fallback
// directly: if a step somehow lands beyond several deadlines of one
// ticker, the ticker fires once, the skipped deadlines are counted in
// tk.coalesced, and the next deadline is re-armed strictly in the future.
func TestTickerCoalescesOvershoot(t *testing.T) {
	m := newParkedMachine(t)
	fires := 0
	id, err := m.AddTicker(10*time.Microsecond, func(time.Duration, *Snapshot) { fires++ })
	if err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	tk := m.tickers[id]
	m.now = 55 * time.Microsecond // 5.5 periods past registration
	m.fireTickersLocked()
	next, coalesced := tk.next, tk.coalesced
	m.mu.Unlock()
	if fires != 1 {
		t.Errorf("ticker fired %d times for one overshot step, want 1", fires)
	}
	if coalesced != 4 {
		t.Errorf("coalesced = %d, want 4 (deadlines at 20..50µs merged into the fire at 10µs)", coalesced)
	}
	if want := 60 * time.Microsecond; next != want {
		t.Errorf("next deadline = %v, want %v", next, want)
	}
}

// TestTickerFiresAdvanceMonotonically checks the planning invariant the
// coalescing fallback backstops: with a ticker period far below MaxStep,
// every fire sees a strictly later virtual time and no deadline is ever
// skipped while work is in flight.
func TestTickerFiresAdvanceMonotonically(t *testing.T) {
	m := newParkedMachine(t)
	var mu sync.Mutex
	var fires []time.Duration
	id, err := m.AddTicker(50*time.Microsecond, func(now time.Duration, _ *Snapshot) {
		mu.Lock()
		fires = append(fires, now)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	runOn(t, m, map[int]func(*CoreCtx){
		0: func(ctx *CoreCtx) { ctx.Compute(2.7e6) }, // ~1 ms
	})
	m.RemoveTicker(id)
	mu.Lock()
	defer mu.Unlock()
	if len(fires) < 10 {
		t.Fatalf("got %d fires across ~1ms with a 50µs period, want >= 10", len(fires))
	}
	for i := 1; i < len(fires); i++ {
		if fires[i] <= fires[i-1] {
			t.Fatalf("fire %d at %v not after fire %d at %v", i, fires[i], i-1, fires[i-1])
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for id, tk := range m.tickers {
		if tk.coalesced != 0 {
			t.Errorf("ticker %d coalesced %d deadlines; planning should bound every step", id, tk.coalesced)
		}
	}
}

// BenchmarkEngineStep measures one engine quantum in which some core
// changes state, so the step replans. The foreground work is sized so
// each step advances a full MaxStep, making ns/op the cost of planning +
// advancing one step.
//
//   - mix: beside the background of steadyStateLoad, which completes
//     something on every step (a busy core, an atomic pair, a spinner);
//   - one-socket: beside fifteen long busy items that change nothing,
//     the foreground charges one MaxStep item per op, so each step
//     changes one core on socket 0 and socket 1's plan stands.
func BenchmarkEngineStep(b *testing.B) {
	for _, bg := range []struct {
		name   string
		load   func(testing.TB, *Machine, int) (stop func())
		charge func(fg *CoreCtx, opsPerStep float64, steps int)
	}{
		{
			"mix",
			func(tb testing.TB, m *Machine, _ int) func() { return steadyStateLoad(tb, m) },
			func(fg *CoreCtx, opsPerStep float64, steps int) { fg.Execute(Work{Ops: opsPerStep * float64(steps)}) },
		},
		{
			"one-socket",
			func(tb testing.TB, m *Machine, steps int) func() {
				quiescentLoad(tb, m, 15, float64(steps))
				return func() {} // ends with the machine
			},
			func(fg *CoreCtx, opsPerStep float64, steps int) {
				for i := 0; i < steps; i++ {
					fg.Execute(Work{Ops: opsPerStep})
				}
			},
		},
	} {
		b.Run(bg.name, func(b *testing.B) {
			cfg := testConfig()
			cfg.VirtualTimeLimit = 0 // b.N steps of 1ms each can pass any fixed limit
			m, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer m.Stop()
			fg, err := m.Enroll(0)
			if err != nil {
				b.Fatal(err)
			}
			defer bg.load(b, m, b.N)()
			defer fg.Release()
			b.ReportAllocs()
			b.ResetTimer()
			bg.charge(fg, float64(cfg.BaseFreq)*cfg.MaxStep.Seconds(), b.N)
		})
	}
}

// quiescentLoad enrolls cores 1..n, each charging one mixed
// compute/memory work item longer than steps MaxStep quanta — enough of
// them contend for bandwidth — so that nothing but a foreground item can
// complete meanwhile: every step taken beside it reuses the plan. The
// items end when the machine stops.
func quiescentLoad(tb testing.TB, m *Machine, n int, steps float64) {
	tb.Helper()
	cfg := m.Config()
	ops := 4 * steps * float64(cfg.BaseFreq) * cfg.MaxStep.Seconds()
	var unwaited sync.WaitGroup // the items end with the machine
	for id := 1; id <= n; id++ {
		ctx, err := m.Enroll(id)
		if err != nil {
			tb.Fatalf("Enroll(%d): %v", id, err)
		}
		Charge(tb, &unwaited, ctx, func(c *CoreCtx) { c.Execute(Work{Ops: ops, Bytes: 4 * ops, Overlap: 0.5}) })
	}
}

// BenchmarkEngineQuiescentStep measures one engine quantum in which no
// core changes state — the MaxStep-capped middle of a long work item,
// which is most of what a low-thread-count baseline run is made of: one
// foreground Execute of b.N MaxSteps beside busy−1 longer ones.
// BenchmarkEngineStep cannot show this: its background mix completes
// something every step.
func BenchmarkEngineQuiescentStep(b *testing.B) {
	for _, busy := range []int{1, 16} {
		b.Run(fmt.Sprintf("busy=%d", busy), func(b *testing.B) {
			cfg := M620()
			cfg.VirtualTimeLimit = 0
			m, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer m.Stop()
			fg, err := m.Enroll(0)
			if err != nil {
				b.Fatal(err)
			}
			quiescentLoad(b, m, busy-1, float64(b.N))
			opsPerStep := float64(cfg.BaseFreq) * cfg.MaxStep.Seconds()
			b.ReportAllocs()
			b.ResetTimer()
			fg.Execute(Work{Ops: opsPerStep * float64(b.N)})
		})
	}
}

// BenchmarkChargingCall measures the round-trip of a minimal charging
// call by a lone owner: it blocks, steps the clock inline once and
// resumes itself, with no goroutine switch. BenchmarkBatonPass is the
// other hand-off path.
func BenchmarkChargingCall(b *testing.B) {
	cfg := testConfig()
	cfg.VirtualTimeLimit = 0
	m, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer m.Stop()
	fg, err := m.Enroll(0)
	if err != nil {
		b.Fatal(err)
	}
	defer fg.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fg.Compute(1)
	}
}

// BenchmarkBatonPass measures a minimal charging call when every resume
// crosses goroutines: two owners charge equal items, so each step
// completes both, and each owner's call blocks to resume the other. One
// op is one call by the foreground owner: two hand-offs and one step.
func BenchmarkBatonPass(b *testing.B) {
	cfg := testConfig()
	cfg.VirtualTimeLimit = 0
	m, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer m.Stop()
	fg, err := m.Enroll(0)
	if err != nil {
		b.Fatal(err)
	}
	bg, err := m.Enroll(1)
	if err != nil {
		b.Fatal(err)
	}
	var done atomic.Bool
	var bgDone sync.WaitGroup
	Charge(b, &bgDone, bg, func(c *CoreCtx) {
		for !done.Load() {
			c.Compute(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fg.Compute(1)
	}
	b.StopTimer()
	done.Store(true)
	fg.Release()
	bgDone.Wait()
}

// BenchmarkMembwAllocate measures one socket's bandwidth allocation for a
// full complement of demanding cores.
func BenchmarkMembwAllocate(b *testing.B) {
	mem := M620().Mem
	demands := make([]float64, 8)
	for i := range demands {
		demands[i] = float64(mem.BandwidthPerSocket) / 4 * float64(i+1) / 8
	}
	var s allocScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mem.allocateInto(demands, &s)
	}
}

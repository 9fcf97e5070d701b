package machine

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/units"
)

// TestEnergyEqualsPowerIntegral checks the engine's core conservation
// law on randomized load shapes: the energy accumulated by the exact
// accounting equals the RAPL counters (within quantization), and average
// power stays within the physical envelope of the model.
func TestEnergyEqualsPowerIntegral(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, err := New(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer m.Stop()

		before := make([]uint32, 2)
		for s := range before {
			before[s] = m.MSR().PackageEnergyCounter(s)
		}
		start := m.Now()

		nCores := 1 + rng.Intn(16)
		var wg sync.WaitGroup
		for i := 0; i < nCores; i++ {
			ctx, err := m.Enroll(i)
			if err != nil {
				t.Fatal(err)
			}
			kind := rng.Intn(3)
			ops := 1e6 * float64(1+rng.Intn(200))
			bytes := 1e5 * float64(rng.Intn(2000))
			Charge(t, &wg, ctx, func(ctx *CoreCtx) {
				switch kind {
				case 0:
					ctx.Compute(ops)
				case 1:
					ctx.Execute(Work{Ops: ops, Bytes: bytes, Overlap: 0.5})
				default:
					ctx.Sleep(time.Duration(ops/2.7e9*1e9) * time.Nanosecond)
				}
			})
		}
		wg.Wait()

		elapsed := m.Now() - start
		if elapsed <= 0 {
			return true // nothing ran long enough to measure
		}
		var counted units.Joules
		for s := range before {
			counted += counterJoules(before[s], m.MSR().PackageEnergyCounter(s))
		}
		exact := nodeEnergy(m)
		if math.Abs(float64(counted-exact)) > 0.01*float64(exact)+0.001 {
			t.Logf("seed %d: counters %v vs exact %v", seed, counted, exact)
			return false
		}
		// Physical envelope: between all-idle and all-out power.
		avg := float64(exact) / elapsed.Seconds()
		cfg := m.Config()
		min := 2 * float64(cfg.Power.UncoreBase) * 0.9
		max := 2 * float64(cfg.Power.PredictSocketPower(8, 1, 0, 0, 0, 0, 1)) * 1.1
		if avg < min || avg > max {
			t.Logf("seed %d: average power %.1f W outside [%.1f, %.1f]", seed, avg, min, max)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestWorkProportionality checks that splitting one work item into many
// chunks takes the same virtual time (no per-call discount or surcharge
// beyond rounding).
func TestWorkProportionality(t *testing.T) {
	run := func(chunks int) time.Duration {
		m := newTestMachine(t)
		defer m.Stop()
		var elapsed time.Duration
		runOn(t, m, map[int]func(*CoreCtx){
			0: func(c *CoreCtx) {
				start := m.Now()
				for i := 0; i < chunks; i++ {
					c.Execute(Work{Ops: 2.7e8 / float64(chunks), Bytes: 1e8 / float64(chunks)})
				}
				elapsed = m.Now() - start
			},
		})
		return elapsed
	}
	one := run(1)
	many := run(64)
	if math.Abs(one.Seconds()-many.Seconds())/one.Seconds() > 0.01 {
		t.Errorf("1 chunk: %v, 64 chunks: %v — charging is not linear", one, many)
	}
}

// TestAtomicThroughputDegradesMonotonically checks the contended-line
// model: total completion time for a fixed op budget never improves as
// contenders are added.
func TestAtomicThroughputDegradesMonotonically(t *testing.T) {
	const totalOps = 5.4e5 // 100 cycles each => 20 ms serial
	timeFor := func(k int) float64 {
		m := newTestMachine(t)
		defer m.Stop()
		line := m.NewLine(100, 0.3, 0.85)
		start := m.Now()
		bodies := map[int]func(*CoreCtx){}
		for i := 0; i < k; i++ {
			bodies[i] = func(c *CoreCtx) { c.Atomic(line, totalOps/float64(k)) }
		}
		runOn(t, m, bodies)
		return (m.Now() - start).Seconds()
	}
	prev := 0.0
	for _, k := range []int{1, 2, 4, 8, 16} {
		cur := timeFor(k)
		if cur < prev*0.99 {
			t.Errorf("contention model not monotone: %d contenders took %.4fs after %.4fs", k, cur, prev)
		}
		prev = cur
	}
}

// TestBandwidthConservationUnderChurn drives random arrivals/departures
// of streaming cores and checks the socket never exceeds its plateau
// bandwidth over any run.
func TestBandwidthConservationUnderChurn(t *testing.T) {
	m := newTestMachine(t)
	mem := m.Config().Mem
	totalBytes := 0.0
	var mu sync.Mutex
	start := m.Now()
	bodies := map[int]func(*CoreCtx){}
	// Draw each core's arrival delay and volume up front: the bodies run
	// on concurrent goroutines and math/rand.Rand is not safe for shared
	// use.
	rng := rand.New(rand.NewSource(7))
	perCore := make([]float64, 8)
	for i := 0; i < 8; i++ {
		perCore[i] = float64(1+rng.Intn(20)) * 1e8
	}
	delay := make([]time.Duration, 8)
	for i := 0; i < 8; i++ {
		delay[i] = time.Duration(rng.Intn(10)) * time.Millisecond
	}
	for i := 0; i < 8; i++ {
		i := i
		bodies[i] = func(c *CoreCtx) {
			c.Sleep(delay[i])
			c.Execute(Work{Bytes: perCore[i]})
			mu.Lock()
			totalBytes += perCore[i]
			mu.Unlock()
		}
	}
	runOn(t, m, bodies)
	elapsed := (m.Now() - start).Seconds()
	if rate := totalBytes / elapsed; rate > float64(mem.BandwidthPerSocket)*1.01 {
		t.Errorf("socket 0 moved %.2f GB/s, plateau is %v", rate/1e9, mem.BandwidthPerSocket)
	}
}

// TestDutyCycleComposesWithDVFS checks the two rate knobs multiply.
func TestDutyCycleComposesWithDVFS(t *testing.T) {
	m := newTestMachine(t)
	if err := m.RequestFrequencyScale(0, 0.5); err != nil {
		t.Fatal(err)
	}
	var elapsed time.Duration
	runOn(t, m, map[int]func(*CoreCtx){
		0: func(c *CoreCtx) {
			c.SetDutyLevel(16) // 1/2 duty
			start := m.Now()
			c.Compute(2.7e8) // 100 ms at full speed
			elapsed = m.Now() - start
			c.FullDuty()
		},
	})
	// 0.5 duty × 0.5 frequency = 4x slowdown.
	if math.Abs(elapsed.Seconds()-0.4) > 0.01 {
		t.Errorf("duty 1/2 × dvfs 1/2 took %v, want ~400 ms", elapsed)
	}
}

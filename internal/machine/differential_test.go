// Differential oracle for the optimized engine: every seeded scenario is
// played on the real machine and interpreted by internal/refmodel's
// naive scan-everything reference engine, and the two trajectories must
// match bit-for-bit at every quantum — energy, power, temperature,
// bandwidth, DVFS scale, RAPL counters (including 32-bit wrap), and
// every ticker fire.
//
// This file is an external test package (machine_test) because refmodel
// imports machine.
package machine_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/refmodel"
)

// differentialSeeds is the size of the seeded sweep: spread across
// shards so the scenarios run in parallel.
const (
	differentialSeeds      = 1024
	differentialShards     = 16
	differentialShortSeeds = 128

	longStretchSeeds      = 256
	longStretchShortSeeds = 64

	// Each corpus also plays its first seeds WithTrafficRunsOut, the
	// plan edge that ends a run; these are extra seeds, so no plain
	// seed is cut short.
	differentialRunsOutSeeds      = 128
	differentialRunsOutShortSeeds = 16
	longStretchRunsOutSeeds       = 32
	longStretchRunsOutShortSeeds  = 16
)

// differentialRunsOut plays seed's traffic-runs-out scenario through
// both engines and fails unless it ends on the item's stall, so the
// corpus keeps reaching that edge.
func differentialRunsOut(t *testing.T, seed int64, gen func(int64) refmodel.Scenario) *refmodel.Result {
	t.Helper()
	got, err := refmodel.DifferentialTrajectory(gen(seed).WithTrafficRunsOut())
	if err != nil {
		t.Errorf("seed %d with a traffic-runs-out item: %v", seed, err)
		return nil
	}
	if !got.Stalled {
		t.Errorf("seed %d with a traffic-runs-out item: the run completed; the corpus no longer reaches the edge", seed)
	}
	return got
}

// TestDifferentialOracle sweeps a seeded scenario corpus through both
// engines. Any divergence reports the first differing step and field;
// rerun a single failure with -run 'TestDifferentialOracle/shard07' or
// reproduce it directly via refmodel.Differential(refmodel.Generate(seed)),
// or refmodel.Differential(refmodel.Generate(seed).WithTrafficRunsOut())
// for a seed the failure names "with a traffic-runs-out item".
func TestDifferentialOracle(t *testing.T) {
	seeds, runsOut := differentialSeeds, differentialRunsOutSeeds
	if testing.Short() {
		seeds, runsOut = differentialShortSeeds, differentialRunsOutShortSeeds
	}
	perShard, runsOutPerShard := seeds/differentialShards, runsOut/differentialShards
	for shard := 0; shard < differentialShards; shard++ {
		shard := shard
		t.Run(fmt.Sprintf("shard%02d", shard), func(t *testing.T) {
			t.Parallel()
			for i := 0; i < perShard; i++ {
				seed := int64(shard*perShard + i)
				if err := refmodel.Differential(refmodel.Generate(seed)); err != nil {
					t.Errorf("seed %d: %v", seed, err)
				}
			}
			for i := 0; i < runsOutPerShard; i++ {
				differentialRunsOut(t, int64(shard*runsOutPerShard+i), refmodel.Generate)
			}
		})
	}
}

// TestDifferentialLongStretch sweeps the long-stretch corpus through both
// engines. TestDifferentialOracle's items span a handful of steps, so its
// scenarios replan almost every step; here items span 20–200 MaxStep
// quanta and the engine reuses its plan for long runs, with every kind of
// invalidating (and non-invalidating) event landing mid-run. Reproduce a
// failure with refmodel.Differential(refmodel.GenerateLongStretch(seed)).
func TestDifferentialLongStretch(t *testing.T) {
	seeds, runsOut := longStretchSeeds, longStretchRunsOutSeeds
	if testing.Short() {
		seeds, runsOut = longStretchShortSeeds, longStretchRunsOutShortSeeds
	}
	var (
		mu                     sync.Mutex
		steps, reused, longest int
	)
	perShard, runsOutPerShard := seeds/differentialShards, runsOut/differentialShards
	t.Run("corpus", func(t *testing.T) {
		for shard := 0; shard < differentialShards; shard++ {
			shard := shard
			t.Run(fmt.Sprintf("shard%02d", shard), func(t *testing.T) {
				t.Parallel()
				for i := 0; i < perShard; i++ {
					seed := int64(shard*perShard + i)
					sc := refmodel.GenerateLongStretch(seed)
					got, err := refmodel.DifferentialTrajectory(sc)
					if err != nil {
						t.Errorf("seed %d: %v", seed, err)
						continue
					}
					n, l := quiescentSteps(got.Steps, sc.Cfg.MaxStep)
					mu.Lock()
					steps += len(got.Steps)
					reused += n
					if l > longest {
						longest = l
					}
					mu.Unlock()
				}
				for i := 0; i < runsOutPerShard; i++ {
					differentialRunsOut(t, int64(shard*runsOutPerShard+i), refmodel.GenerateLongStretch)
				}
			})
		}
	})
	// Vacuity guard: the corpus is only worth its time if most of its
	// steps are the kind the plan cache serves.
	t.Logf("%d seeds: %d steps, %d of them quiescent (%.0f%%), longest run %d; %d more with a traffic-runs-out item",
		seeds, steps, reused, 100*float64(reused)/float64(steps), longest, runsOut)
	if reused*2 < steps {
		t.Errorf("only %d of %d steps are quiescent; the corpus no longer exercises plan reuse", reused, steps)
	}
	if longest < 100 {
		t.Errorf("longest quiescent run is %d steps, want >= 100", longest)
	}
}

// quiescentSteps counts the MaxStep-long steps whose plan-determined
// fields (DVFS scale, outstanding references, utilization, granted
// bandwidth) equal the previous step's on every socket — steps before
// which no core changed state, which a plan-reusing engine serves from
// its cache — and the longest run of them.
func quiescentSteps(steps []machine.StepRecord, maxStep time.Duration) (n, longest int) {
	run := 0
	for k := 1; k < len(steps); k++ {
		same := steps[k].Dt == maxStep
		for s := range steps[k].Sockets {
			a, b := steps[k-1].Sockets[s], steps[k].Sockets[s]
			same = same && a.FreqScale == b.FreqScale &&
				a.Refs == b.Refs && a.Util == b.Util && a.Bandwidth == b.Bandwidth
		}
		if !same {
			run = 0
			continue
		}
		n++
		if run++; run > longest {
			longest = run
		}
	}
	return n, longest
}

// FuzzDifferential lets the fuzzer hunt for scenario seeds where the
// engines disagree or an invariant breaks. The corpus covers all
// generator branches of both scenario shapes (topology, memory shape, RAPL preload, ticker churn; short items that replan every step
// and long stretches that reuse the plan; with and without a
// traffic-runs-out item); the fuzzer then mutates the seed and the shape
// freely. Run locally with:
//
//	go test ./internal/machine -run '^$' -fuzz FuzzDifferential -fuzztime 60s
func FuzzDifferential(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed, false, false)
		f.Add(seed, true, false)
	}
	for seed := int64(0); seed < 4; seed++ {
		f.Add(seed, false, true)
		f.Add(seed, true, true)
	}
	f.Add(int64(-1), false, false)
	f.Add(int64(1<<40), true, false)
	f.Fuzz(func(t *testing.T, seed int64, longStretch, runsOut bool) {
		gen := refmodel.Generate
		if longStretch {
			gen = refmodel.GenerateLongStretch
		}
		sc := gen(seed)
		if runsOut {
			sc = sc.WithTrafficRunsOut()
		}
		if err := refmodel.Differential(sc); err != nil {
			t.Fatalf("seed %d (long stretch: %v, traffic runs out: %v): %v", seed, longStretch, runsOut, err)
		}
	})
}

// TestDifferentialSameInstantTickers plays the one tie the seeded corpus
// never produces: A (30 ms), B (10 ms) and C (30 ms) are all due at
// 30 ms, after B's earlier fires have moved it around the engine's heap.
// Both engines must fire them in registration order.
func TestDifferentialSameInstantTickers(t *testing.T) {
	sc := refmodel.Scenario{Cfg: machine.M620(), TickerSlots: 3}
	sc.Cfg.MaxStep = time.Millisecond
	add := func(slot int, period time.Duration) refmodel.GlobalOp {
		return refmodel.GlobalOp{Kind: refmodel.GlobalAddTicker, Ticker: slot, Period: period}
	}
	sc.Phases = []refmodel.Phase{{
		Ops:   []refmodel.GlobalOp{add(0, 30*time.Millisecond), add(1, 10*time.Millisecond), add(2, 30*time.Millisecond)},
		Sleep: 35 * time.Millisecond,
	}}
	if err := refmodel.Differential(sc); err != nil {
		t.Fatal(err)
	}
}

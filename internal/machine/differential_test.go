// Differential oracle for the optimized engine: every seeded scenario is
// played on the real machine and interpreted by internal/refmodel's
// naive scan-everything reference engine, and the two trajectories must
// match bit-for-bit at every quantum — energy, power, temperature,
// bandwidth, turbo boost, DVFS scale, RAPL counters (including 32-bit
// wrap), TSC and therm-status registers, and every ticker fire.
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
)

// TestDifferentialOracle sweeps a seeded scenario corpus through both
// engines. Any divergence reports the first differing step and field;
// rerun a single failure with -run 'TestDifferentialOracle/shard07' or
// reproduce it directly via refmodel.Differential(refmodel.Generate(seed)).
func TestDifferentialOracle(t *testing.T) {
	seeds := differentialSeeds
	if testing.Short() {
		seeds = differentialShortSeeds
	}
	perShard := seeds / differentialShards
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
	seeds := longStretchSeeds
	if testing.Short() {
		seeds = longStretchShortSeeds
	}
	var (
		mu                     sync.Mutex
		steps, reused, longest int
	)
	perShard := seeds / differentialShards
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
			})
		}
	})
	// Vacuity guard: the corpus is only worth its time if most of its
	// steps are the kind the plan cache serves.
	t.Logf("%d seeds: %d steps, %d of them quiescent (%.0f%%), longest run %d",
		seeds, steps, reused, 100*float64(reused)/float64(steps), longest)
	if reused*2 < steps {
		t.Errorf("only %d of %d steps are quiescent; the corpus no longer exercises plan reuse", reused, steps)
	}
	if longest < 100 {
		t.Errorf("longest quiescent run is %d steps, want >= 100", longest)
	}
}

// quiescentSteps counts the MaxStep-long steps whose plan-determined
// fields (boost, DVFS scale, outstanding references, utilization, granted
// bandwidth) equal the previous step's on every socket — steps before
// which no core changed state, which a plan-reusing engine serves from
// its cache — and the longest run of them.
func quiescentSteps(steps []machine.StepRecord, maxStep time.Duration) (n, longest int) {
	run := 0
	for k := 1; k < len(steps); k++ {
		same := steps[k].Dt == maxStep
		for s := range steps[k].Sockets {
			a, b := steps[k-1].Sockets[s], steps[k].Sockets[s]
			same = same && a.Boost == b.Boost && a.FreqScale == b.FreqScale &&
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
// generator branches of both scenario shapes (topology, turbo, memory
// shape, RAPL preload, ticker churn; short items that replan every step
// and long stretches that reuse the plan); the fuzzer then mutates the
// seed and the shape freely. Run locally with:
//
//	go test ./internal/machine -run '^$' -fuzz FuzzDifferential -fuzztime 60s
func FuzzDifferential(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed, false)
		f.Add(seed, true)
	}
	f.Add(int64(-1), false)
	f.Add(int64(1<<40), true)
	f.Fuzz(func(t *testing.T, seed int64, longStretch bool) {
		gen := refmodel.Generate
		if longStretch {
			gen = refmodel.GenerateLongStretch
		}
		if err := refmodel.Differential(gen(seed)); err != nil {
			t.Fatalf("seed %d (long stretch: %v): %v", seed, longStretch, err)
		}
	})
}

package qthreads

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/machine"
)

// TestRandomTaskDAGsComputeCorrectSums spawns randomized task trees and
// checks that joins always see every child's contribution — the core
// correctness property of spawn/sync under stealing.
func TestRandomTaskDAGsComputeCorrectSums(t *testing.T) {
	cfg := machine.M620()
	cfg.VirtualTimeLimit = 30 * time.Minute
	_, rt := newStackOn(t, cfg, Config{Workers: 16})

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		depth := 2 + rng.Intn(4)
		fanout := 1 + rng.Intn(4)
		// The expected sum is the number of nodes in the full tree.
		want := int64(0)
		nodes := int64(1)
		for d := 0; d <= depth; d++ {
			want += nodes
			nodes *= int64(fanout)
		}
		// Draw every node's compute cost up front: tasks run on multiple
		// worker goroutines and math/rand.Rand is not safe for concurrent
		// use.
		costs := make([]float64, want)
		for i := range costs {
			costs[i] = float64(1 + rng.Intn(5000))
		}
		var got atomic.Int64
		var build func(tc *TC, d int)
		build = func(tc *TC, d int) {
			tc.Compute(costs[got.Add(1)-1])
			if d == depth {
				return
			}
			for c := 0; c < fanout; c++ {
				tc.Spawn(func(tc *TC) { build(tc, d+1) })
			}
			tc.Sync()
		}
		if err := run(rt, func(tc *TC) { build(tc, 0) }); err != nil {
			t.Log(err)
			return false
		}
		if got.Load() != want {
			t.Logf("seed %d: visited %d nodes, want %d", seed, got.Load(), want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestParallelForRandomShapes checks exact coverage for randomized range
// and chunk sizes, including chunk > n and chunk 1.
func TestParallelForRandomShapes(t *testing.T) {
	cfg := machine.M620()
	cfg.VirtualTimeLimit = 30 * time.Minute
	_, rt := newStackOn(t, cfg, Config{})

	f := func(nRaw uint16, chunkRaw uint8) bool {
		n := int(nRaw%3000) + 1
		chunk := int(chunkRaw) % (n + 10) // may exceed n; 0 means auto
		var sum atomic.Int64
		err := run(rt, func(tc *TC) {
			tc.ParallelFor(n, chunk, func(tc *TC, lo, hi int) {
				tc.Compute(float64(hi-lo) * 10)
				for i := lo; i < hi; i++ {
					sum.Add(int64(i))
				}
			})
		})
		if err != nil {
			t.Log(err)
			return false
		}
		want := int64(n) * int64(n-1) / 2
		if sum.Load() != want {
			t.Logf("n=%d chunk=%d: sum %d, want %d", n, chunk, sum.Load(), want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestStatsAccounting checks that every executed task is attributed to
// exactly one worker.
func TestStatsAccounting(t *testing.T) {
	cfg := machine.M620()
	cfg.VirtualTimeLimit = 30 * time.Minute
	_, rt := newStackOn(t, cfg, Config{})

	const tasks = 500
	err := run(rt, func(tc *TC) {
		g := tc.NewGroup()
		for i := 0; i < tasks; i++ {
			g.Spawn(tc, func(tc *TC) { tc.Compute(1e5) })
		}
		g.Wait(tc)
	})
	if err != nil {
		t.Fatal(err)
	}
	executed := rt.met.tasks.Value()
	popsPlusSteals := rt.met.localPops.Value() + rt.met.steals.Value()
	// tasks + the root itself.
	if executed != tasks+1 {
		t.Errorf("executed = %d, want %d", executed, tasks+1)
	}
	if popsPlusSteals != executed {
		t.Errorf("pops+steals = %d, executed = %d: a task was run without being dequeued", popsPlusSteals, executed)
	}
}

// TestEpochWakesThrottledSpinners verifies the paper's "parallel phase
// termination" wake condition: spinners blocked by the throttle gate
// resume when an epoch boundary passes even if the throttle stays on.
func TestEpochWakesThrottledSpinners(t *testing.T) {
	cfg := machine.M620()
	cfg.VirtualTimeLimit = 30 * time.Minute
	_, rt := newStackOn(t, cfg, Config{})

	rt.SetThrottle(true, 2) // 4 of 16 workers active
	err := run(rt, func(tc *TC) {
		// Two phases; each bumps the epoch at its group Wait.
		for phase := 0; phase < 2; phase++ {
			g := tc.NewGroup()
			for i := 0; i < 64; i++ {
				g.Spawn(tc, func(tc *TC) { tc.Compute(1e6) })
			}
			g.Wait(tc)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if stops := rt.met.throttleStops.Value(); stops == 0 {
		t.Error("no throttle stops despite limit 2")
	}
	rt.SetThrottle(false, 8)
}

package micro

import (
	"fmt"
	"sync/atomic"

	"repro/internal/compiler"
	"repro/internal/machine"
	"repro/internal/qthreads"
	"repro/internal/workloads"
	"repro/internal/workloads/bots"
)

// Fibonacci is the untuned recursive Fibonacci micro-benchmark: a task
// per call with no cutoff. The two compilers produce qualitatively
// different programs (paper Tables II/III):
//
//   - GCC: every tiny call becomes an OpenMP task. The run is dominated
//     by task allocation/queue traffic on shared cache lines, so adding
//     threads adds coherence ping-pong: 16 threads run 1.5× *slower*
//     than serial, at low power (~92–97 W) because the cores are
//     latency-stalled on the allocator.
//   - ICC: the inliner collapses the recursion into coarse compute-bound
//     work; 13.5 s at ~143 W regardless of optimization level.
type Fibonacci struct {
	p      workloads.Params
	want   uint64
	got    uint64
	leaves atomic.Int64 // leaf tasks the last run charged

	// GCC mechanism: contended allocator line.
	virtPerLeaf  float64
	pingpong     float64
	lineActivity float64
	bodyPerLeaf  float64
	// ICC mechanism: coarse compute.
	opsPerLeaf float64
	activity   float64
}

// Fibonacci mechanism constants: the virtual task tree is far larger
// than the real one (scale = virtual nodes per real leaf); the allocator
// critical section costs ~340 cycles uncontended, with the ping-pong
// factor fitted to the paper's 1.5× slowdown from serial to 16 threads.
const (
	fibN            = 26
	fibSpawnDepth   = 10 // 2^10 leaf tasks
	fibLineCost     = 340
	fibBodyCycles   = 60 // per virtual call outside the allocator
	fibGCCSerialSec = 51.3
)

// NewFibonacci creates the workload.
func NewFibonacci() *Fibonacci { return &Fibonacci{} }

// Name returns the canonical app name.
func (w *Fibonacci) Name() string { return compiler.AppFibonacci }

// Prepare calibrates the mechanism for the selected compiler.
func (w *Fibonacci) Prepare(p workloads.Params) error {
	p = p.WithDefaults()
	w.p = p
	w.want = bots.FibValue(fibN)
	numLeafs := float64(int(1) << fibSpawnDepth)

	cfg := p.MachineConfig
	f := float64(cfg.BaseFreq)
	entry, ok := compiler.PaperEntry(w.Name(), p.Target)
	if !ok {
		return fmt.Errorf("micro: fibonacci has no %v entry", p.Target)
	}
	if p.Target.Compiler == compiler.GCC {
		// Virtual call count from the serial anchor: T(1) = Nv×(alloc +
		// body)/f scaled by this build's time relative to the -O3 row
		// (the fastest GCC build anchors the serial estimate).
		gccBase, _ := compiler.PaperEntry(w.Name(), compiler.Target{Compiler: compiler.GCC, Opt: compiler.O3})
		serial := fibGCCSerialSec * (entry.Seconds / gccBase.Seconds) * p.Scale
		nv := serial * f / (fibLineCost + fibBodyCycles)
		w.virtPerLeaf = nv / numLeafs
		w.bodyPerLeaf = w.virtPerLeaf * fibBodyCycles
		// Fit ping-pong to this build's 16-thread time:
		// T16 ≈ Nv×cost×(1+15λ)/f + Nv×body/(16f).
		atomicShare := entry.Seconds*p.Scale - nv*fibBodyCycles/(16*f)
		mult := atomicShare * f / (nv * fibLineCost)
		if mult < 1 {
			mult = 1
		}
		w.pingpong = (mult - 1) / 15
		w.lineActivity = workloads.SolveActivity(cfg, entry.Watts,
			cfg.CoresPerSocket, 0, 0, 1, 0, 0)
	} else {
		// ICC: compute-bound coarse tasks.
		total := entry.Seconds * p.Scale * float64(cfg.Cores()) * f
		w.opsPerLeaf = total / numLeafs
		w.activity = workloads.SolveActivity(cfg, entry.Watts,
			cfg.CoresPerSocket, 0, 0, 1, 0, 0)
	}
	return nil
}

// Root returns the benchmark body: BOTS' Fibonacci task tree, with the
// leaves charging this build's mechanism.
func (w *Fibonacci) Root() qthreads.Task {
	return func(tc *qthreads.TC) {
		leaf := func(tc *qthreads.TC) {
			w.leaves.Add(1)
			tc.Execute(machine.Work{Ops: w.opsPerLeaf, Activity: w.activity})
		}
		if w.p.Target.Compiler == compiler.GCC {
			line := tc.Machine().NewLine(fibLineCost, w.pingpong, w.lineActivity)
			leaf = func(tc *qthreads.TC) {
				w.leaves.Add(1)
				tc.Atomic(line, w.virtPerLeaf)
				tc.Compute(w.bodyPerLeaf)
			}
		}
		w.leaves.Store(0)
		w.got = bots.FibTree(tc, fibN, fibSpawnDepth, leaf)
	}
}

// Validate checks the Fibonacci value and that every leaf task ran
// once: the tree has 2^fibSpawnDepth leaves.
func (w *Fibonacci) Validate() error {
	if w.got != w.want {
		return fmt.Errorf("fibonacci: fib(%d) = %d, want %d", fibN, w.got, w.want)
	}
	if n := w.leaves.Load(); n != 1<<fibSpawnDepth {
		return fmt.Errorf("fibonacci: %d leaf tasks ran, want %d", n, 1<<fibSpawnDepth)
	}
	return nil
}

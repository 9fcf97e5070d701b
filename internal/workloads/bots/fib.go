package bots

import (
	"fmt"
	"sync/atomic"

	"repro/internal/compiler"
	"repro/internal/machine"
	"repro/internal/qthreads"
	"repro/internal/workloads"
)

// Fib is BOTS Fibonacci *with cutoff*: tasks are spawned down to a fixed
// recursion depth and computed serially below it, so tasks are coarse
// enough to amortize scheduling (paper §II). Unlike the untuned
// micro-benchmark it scales near-linearly; the compilers still differ
// sharply in power (GCC ~96 W — stall-heavy task code — versus ICC
// ~157 W dense compute, Tables II/III).
type Fib struct {
	want   uint64
	got    uint64
	leaves atomic.Int64 // leaf tasks the last run charged

	perLeaf  float64
	activity float64
}

// BOTS-like parameters: fib(30) with a manual cutoff 9 levels down gives
// 512 coarse leaf tasks.
const (
	botsFibN      = 30
	botsFibCutoff = 9
)

// NewFib creates the workload.
func NewFib() *Fib { return &Fib{} }

// Name returns the canonical app name.
func (w *Fib) Name() string { return compiler.AppFibCutoff }

// Prepare calibrates the charge model.
func (w *Fib) Prepare(p workloads.Params) error {
	p = p.WithDefaults()
	total, act, err := workloads.ComputeCalib(p.MachineConfig, w.Name(), p.Target, p.Scale)
	if err != nil {
		return err
	}
	w.want = FibValue(botsFibN)
	w.perLeaf = total / float64(1<<botsFibCutoff)
	w.activity = act
	return nil
}

// FibValue is the reference: fib(n), computed iteratively.
func FibValue(n int) uint64 {
	a, b := uint64(0), uint64(1)
	for i := 0; i < n; i++ {
		a, b = b, a+b
	}
	return a
}

// FibTree computes fib(n) as a task tree: it spawns the recursion down
// to depth levels and calls leaf once in every leaf task to charge it.
// A leaf's value is a pure function of its n, so it is FibValue(n), not
// a serial recursion run again on the host (workloads package doc); the
// inner tasks still add their children's results after Sync.
func FibTree(tc *qthreads.TC, n, depth int, leaf qthreads.Task) uint64 {
	if depth == 0 || n < 2 {
		leaf(tc)
		return FibValue(n)
	}
	var a uint64
	tc.Spawn(func(tc *qthreads.TC) { a = FibTree(tc, n-1, depth-1, leaf) })
	b := FibTree(tc, n-2, depth-1, leaf)
	tc.Sync()
	return a + b
}

// Root returns the benchmark body.
func (w *Fib) Root() qthreads.Task {
	return func(tc *qthreads.TC) {
		w.leaves.Store(0)
		w.got = FibTree(tc, botsFibN, botsFibCutoff, func(tc *qthreads.TC) {
			w.leaves.Add(1)
			tc.Execute(machine.Work{Ops: w.perLeaf, Activity: w.activity})
		})
	}
}

// Validate checks the Fibonacci value and that every leaf task ran
// once: the tree has 2^cutoff leaves.
func (w *Fib) Validate() error {
	if w.got != w.want {
		return fmt.Errorf("bots-fib: fib(%d) = %d, want %d", botsFibN, w.got, w.want)
	}
	if n := w.leaves.Load(); n != 1<<botsFibCutoff {
		return fmt.Errorf("bots-fib: %d leaf tasks ran, want %d", n, 1<<botsFibCutoff)
	}
	return nil
}

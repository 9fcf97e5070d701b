package bots

import (
	"fmt"

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
	want uint64
	got  uint64

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

func fibRec(n int) uint64 {
	if n < 2 {
		return uint64(n)
	}
	return fibRec(n-1) + fibRec(n-2)
}

// FibTree computes fib(n) as a task tree: it spawns the recursion down
// to depth levels, computes each leaf's subtree serially on the host,
// and calls leaf once in every leaf task to charge it.
func FibTree(tc *qthreads.TC, n, depth int, leaf qthreads.Task) uint64 {
	if depth == 0 || n < 2 {
		v := fibRec(n)
		leaf(tc)
		return v
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
		w.got = FibTree(tc, botsFibN, botsFibCutoff, func(tc *qthreads.TC) {
			tc.Execute(machine.Work{Ops: w.perLeaf, Activity: w.activity})
		})
	}
}

// Validate checks the Fibonacci value.
func (w *Fib) Validate() error {
	if w.got != w.want {
		return fmt.Errorf("bots-fib: fib(%d) = %d, want %d", botsFibN, w.got, w.want)
	}
	return nil
}

package bots

import (
	"sync"
	"testing"

	"repro/internal/compiler"
	"repro/internal/machine"
	"repro/internal/workloads"
)

// memoCase describes one memoized workload type to the tests below,
// which run under -race in CI: that is the proof that nothing a run
// writes is reachable from a memo entry.
type memoCase struct {
	name string
	// a and b construct two instances that share a memo entry (the -for
	// and -single variants where the type has both).
	a, b func() workloads.Workload
	// targets are two builds the paper measured, for both a and b, with
	// different times.
	targets [2]compiler.Target
	// shared returns the address of the first word of the reference, to
	// tell a shared reference from an equal copy; nil when the reference
	// is held by value.
	shared func(workloads.Workload) any
	// ref returns a value that differs when the reference does.
	ref func(workloads.Workload) any
	// calib returns the per-unit charge, which must follow the target.
	calib func(workloads.Workload) float64
	// rekeys each change one parameter the input depends on; none when
	// it depends on no parameter.
	rekeys []func(workloads.Params) workloads.Params
}

var (
	gccO0   = compiler.Target{Compiler: compiler.GCC, Opt: compiler.O0}
	iccO2   = compiler.Target{Compiler: compiler.ICC, Opt: compiler.O2}
	iccO0   = compiler.Target{Compiler: compiler.ICC, Opt: compiler.O0}
	reseed  = func(p workloads.Params) workloads.Params { p.Seed = 7; return p }
	rescale = func(p workloads.Params) workloads.Params { p.Scale = 0.05; return p }
)

var memoCases = []memoCase{
	{
		name:    "nqueens",
		a:       func() workloads.Workload { return NewNQueens() },
		b:       func() workloads.Workload { return NewNQueens() },
		targets: [2]compiler.Target{compiler.Baseline, gccO0},
		ref: func(w workloads.Workload) any {
			q := w.(*NQueens)
			return [2]int64{q.wantCount, q.wantNodes}
		},
		calib: func(w workloads.Workload) float64 { return w.(*NQueens).cyclesPerNode },
	},
	{
		// The micro-benchmark's 12-queens board (micro.NewNQueens) and
		// BOTS' 13-queens board share nqueensRefs' one entry.
		name:    "nqueens-boards",
		a:       func() workloads.Workload { return NewNQueensBoard(compiler.AppNQueens, 12, 2) },
		b:       func() workloads.Workload { return NewNQueens() },
		targets: [2]compiler.Target{compiler.Baseline, gccO0},
		ref: func(w workloads.Workload) any {
			q := w.(*NQueens)
			return [2]int64{q.wantCount, q.wantNodes}
		},
		calib: func(w workloads.Workload) float64 { return w.(*NQueens).cyclesPerNode },
	},
	{
		name:    "sparselu",
		a:       func() workloads.Workload { return NewSparseLUFor() },
		b:       func() workloads.Workload { return NewSparseLUSingle() },
		targets: [2]compiler.Target{iccO2, iccO0},
		shared:  func(w workloads.Workload) any { return &w.(*SparseLU).want[0][0] },
		ref:     func(w workloads.Workload) any { return w.(*SparseLU).want[0][0] },
		calib:   func(w workloads.Workload) float64 { return w.(*SparseLU).cyclesPerFlop },
		rekeys:  []func(workloads.Params) workloads.Params{reseed},
	},
	{
		name:    "strassen",
		a:       func() workloads.Workload { return NewStrassen() },
		b:       func() workloads.Workload { return NewStrassen() },
		targets: [2]compiler.Target{compiler.Baseline, gccO0},
		shared:  func(w workloads.Workload) any { return &w.(*Strassen).want[0] },
		ref:     func(w workloads.Workload) any { return w.(*Strassen).want[0] },
		calib:   func(w workloads.Workload) float64 { return w.(*Strassen).perLeaf },
		rekeys:  []func(workloads.Params) workloads.Params{reseed},
	},
	{
		name:    "alignment",
		a:       func() workloads.Workload { return NewAlignmentFor() },
		b:       func() workloads.Workload { return NewAlignmentSingle() },
		targets: [2]compiler.Target{compiler.Baseline, gccO0},
		shared:  func(w workloads.Workload) any { return &w.(*Alignment).seqs[0][0] },
		ref: func(w workloads.Workload) any {
			a := w.(*Alignment)
			return string(a.seqs[0])
		},
		calib:  func(w workloads.Workload) float64 { return w.(*Alignment).perPair },
		rekeys: []func(workloads.Params) workloads.Params{reseed},
	},
	{
		name:    "sort",
		a:       func() workloads.Workload { return NewSort() },
		b:       func() workloads.Workload { return NewSort() },
		targets: [2]compiler.Target{compiler.Baseline, gccO0},
		shared:  func(w workloads.Workload) any { return &w.(*Sort).data[0] },
		ref: func(w workloads.Workload) any {
			s := w.(*Sort)
			return [2]int64{s.wantSum, int64(len(s.data))}
		},
		calib:  func(w workloads.Workload) float64 { return w.(*Sort).cyclesPerElem },
		rekeys: []func(workloads.Params) workloads.Params{reseed, rescale},
	},
}

// memoParams keeps the simulated runs short; the BOTS inputs other than
// sort's do not depend on Scale.
func memoParams(t compiler.Target) workloads.Params {
	return workloads.Params{Target: t, Scale: 0.1}
}

func mustPrepare(t *testing.T, wl workloads.Workload, p workloads.Params) workloads.Workload {
	t.Helper()
	if err := wl.Prepare(p); err != nil {
		t.Fatalf("%s: %v", wl.Name(), err)
	}
	return wl
}

func mustRun(t *testing.T, wl workloads.Workload) {
	t.Helper()
	if _, err := workloads.RunOnce(newMachine(t), wl, 16); err != nil {
		t.Errorf("%s: %v", wl.Name(), err)
	}
}

func TestMemoConcurrentRunsValidate(t *testing.T) {
	for _, c := range memoCases {
		t.Run(c.name, func(t *testing.T) {
			p := memoParams(c.targets[0])
			wls := []workloads.Workload{mustPrepare(t, c.a(), p), mustPrepare(t, c.b(), p)}
			if c.shared != nil && c.shared(wls[0]) != c.shared(wls[1]) {
				t.Fatal("two instances prepared from one key do not share the reference")
			}
			// newMachine registers cleanups, so machines are made here
			// and only the runs overlap.
			machines := []*machine.Machine{newMachine(t), newMachine(t)}
			var wg sync.WaitGroup
			for i, wl := range wls {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := workloads.RunOnce(machines[i], wl, 16); err != nil {
						t.Errorf("%s: %v", wl.Name(), err)
					}
				}()
			}
			wg.Wait()
		})
	}
}

func TestMemoRunLeavesReferenceIntact(t *testing.T) {
	for _, c := range memoCases {
		t.Run(c.name, func(t *testing.T) {
			p := memoParams(c.targets[0])
			a := mustPrepare(t, c.a(), p)
			mustRun(t, a)
			// b comes out of the memo after a has run on the entry.
			b := mustPrepare(t, c.b(), p)
			if err := b.Validate(); err == nil {
				t.Error("a memo hit made an unrun instance valid")
			}
			mustRun(t, b)
			if err := a.Validate(); err != nil {
				t.Errorf("b's run invalidated a: %v", err)
			}
			mustRun(t, a)
			if err := b.Validate(); err != nil {
				t.Errorf("a's second run invalidated b: %v", err)
			}
		})
	}
}

func TestMemoDifferentInputRebuilds(t *testing.T) {
	for _, c := range memoCases {
		t.Run(c.name, func(t *testing.T) {
			p := memoParams(c.targets[0])
			for _, rekey := range c.rekeys {
				first := mustPrepare(t, c.a(), p)
				other := mustPrepare(t, c.a(), rekey(p))
				if c.ref(first) == c.ref(other) {
					t.Fatalf("a different input hit the stale entry: reference %v both times", c.ref(first))
				}
				// The displaced input is rebuilt to the same reference.
				if again := mustPrepare(t, c.a(), p); c.ref(again) != c.ref(first) {
					t.Errorf("rebuilt reference %v, first %v", c.ref(again), c.ref(first))
				}
				mustRun(t, other)
			}
		})
	}
}

func TestMemoTargetsShareReferenceNotCalibration(t *testing.T) {
	for _, c := range memoCases {
		t.Run(c.name, func(t *testing.T) {
			x := mustPrepare(t, c.a(), memoParams(c.targets[0]))
			y := mustPrepare(t, c.a(), memoParams(c.targets[1]))
			if c.shared != nil && c.shared(x) != c.shared(y) {
				t.Error("two targets on one key built the reference twice")
			}
			if c.ref(x) != c.ref(y) {
				t.Errorf("references differ across targets: %v vs %v", c.ref(x), c.ref(y))
			}
			if c.calib(x) == c.calib(y) {
				t.Errorf("calibration %g shared across targets %v and %v", c.calib(x), c.targets[0], c.targets[1])
			}
		})
	}
}

// TestMemoAlternatesBoards prepares the micro and the BOTS n-queens in
// turn: each rebuilds the one entry the other displaced, and each must
// get its own board's reference.
func TestMemoAlternatesBoards(t *testing.T) {
	p := memoParams(compiler.Baseline)
	for i := 0; i < 3; i++ {
		micro := mustPrepare(t, NewNQueensBoard(compiler.AppNQueens, 12, 2), p).(*NQueens)
		bots := mustPrepare(t, NewNQueens(), p).(*NQueens)
		if micro.wantCount != 14200 || bots.wantCount != 73712 {
			t.Fatalf("round %d: 12 queens %d solutions, 13 queens %d; want 14200 and 73712", i, micro.wantCount, bots.wantCount)
		}
	}
}

package micro

import (
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/workloads"
)

// newNode builds a warm M620 node with the given worker count and a
// generous watchdog, as the Lab builds a cell's node. It closes when the
// test ends.
func newNode(t *testing.T, workers int) *core.System {
	t.Helper()
	cfg := machine.M620()
	cfg.VirtualTimeLimit = 30 * time.Minute
	sys, err := core.New(core.Options{Machine: cfg, Workers: workers, Warm: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	return sys
}

// checkBaseline runs a workload at 16 threads / GCC -O2 and compares the
// measured time and power against the paper's Table I cell.
func checkBaseline(t *testing.T, wl workloads.Workload, timeTol, powerTol float64) {
	t.Helper()
	if err := wl.Prepare(workloads.Params{}); err != nil {
		t.Fatal(err)
	}
	rep, err := newNode(t, 16).RunWorkload(wl)
	if err != nil {
		t.Fatal(err)
	}
	want, ok := compiler.PaperEntry(wl.Name(), compiler.Baseline)
	if !ok {
		t.Fatalf("no baseline entry for %s", wl.Name())
	}
	gotSec := rep.Elapsed.Seconds()
	if math.Abs(gotSec-want.Seconds)/want.Seconds > timeTol {
		t.Errorf("%s: time = %.2f s, paper %.2f s (tol %.0f%%)",
			wl.Name(), gotSec, want.Seconds, timeTol*100)
	}
	gotW := float64(rep.AvgPower)
	if math.Abs(gotW-want.Watts)/want.Watts > powerTol {
		t.Errorf("%s: power = %.1f W, paper %.1f W (tol %.0f%%)",
			wl.Name(), gotW, want.Watts, powerTol*100)
	}
	t.Logf("%s: %.2f s / %.1f W (paper %.1f s / %.1f W)",
		wl.Name(), gotSec, gotW, want.Seconds, want.Watts)
}

func TestReductionBaseline(t *testing.T) {
	checkBaseline(t, NewReduction(), 0.10, 0.08)
}

func TestReductionAntiScales(t *testing.T) {
	// The defining behaviour: more threads, more time (paper: 16 threads
	// = 3.2x serial).
	wl := NewReduction()
	if err := wl.Prepare(workloads.Params{Scale: 0.1}); err != nil {
		t.Fatal(err)
	}
	t1, err := newNode(t, 1).RunWorkload(wl)
	if err != nil {
		t.Fatal(err)
	}
	t16, err := newNode(t, 16).RunWorkload(wl)
	if err != nil {
		t.Fatal(err)
	}
	ratio := t16.Elapsed.Seconds() / t1.Elapsed.Seconds()
	if ratio < 2.5 || ratio > 4.0 {
		t.Errorf("16-thread/serial ratio = %.2f, paper ~3.2", ratio)
	}
}

func TestNQueensBaseline(t *testing.T) {
	checkBaseline(t, NewNQueens(), 0.12, 0.08)
}

func TestNQueensScalesTo16(t *testing.T) {
	wl := NewNQueens()
	if err := wl.Prepare(workloads.Params{Scale: 0.2}); err != nil {
		t.Fatal(err)
	}
	t1, err := newNode(t, 1).RunWorkload(wl)
	if err != nil {
		t.Fatal(err)
	}
	t16, err := newNode(t, 16).RunWorkload(wl)
	if err != nil {
		t.Fatal(err)
	}
	speedup := t1.Elapsed.Seconds() / t16.Elapsed.Seconds()
	if speedup < 11 {
		t.Errorf("nqueens speedup at 16 threads = %.1f, want near-linear", speedup)
	}
}

func TestMergesortBaseline(t *testing.T) {
	checkBaseline(t, NewMergesort(), 0.10, 0.10)
}

func TestMergesortScalesToTwo(t *testing.T) {
	wl := NewMergesort()
	if err := wl.Prepare(workloads.Params{Scale: 0.2}); err != nil {
		t.Fatal(err)
	}
	t1, err := newNode(t, 1).RunWorkload(wl)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := newNode(t, 2).RunWorkload(wl)
	if err != nil {
		t.Fatal(err)
	}
	t16, err := newNode(t, 16).RunWorkload(wl)
	if err != nil {
		t.Fatal(err)
	}
	s2 := t1.Elapsed.Seconds() / t2.Elapsed.Seconds()
	s16 := t1.Elapsed.Seconds() / t16.Elapsed.Seconds()
	if s2 < 1.5 {
		t.Errorf("mergesort speedup at 2 threads = %.2f, want ~1.8", s2)
	}
	if s16 > s2*1.15 {
		t.Errorf("mergesort keeps scaling past 2 threads: s2=%.2f s16=%.2f", s2, s16)
	}
}

func TestFibonacciGCCBaseline(t *testing.T) {
	checkBaseline(t, NewFibonacci(), 0.12, 0.08)
}

func TestFibonacciGCCSlowerThanSerial(t *testing.T) {
	wl := NewFibonacci()
	if err := wl.Prepare(workloads.Params{Scale: 0.05}); err != nil {
		t.Fatal(err)
	}
	t1, err := newNode(t, 1).RunWorkload(wl)
	if err != nil {
		t.Fatal(err)
	}
	t16, err := newNode(t, 16).RunWorkload(wl)
	if err != nil {
		t.Fatal(err)
	}
	ratio := t16.Elapsed.Seconds() / t1.Elapsed.Seconds()
	if ratio < 1.2 || ratio > 2.0 {
		t.Errorf("GCC fib 16-thread/serial ratio = %.2f, paper ~1.5", ratio)
	}
}

func TestFibonacciICC(t *testing.T) {
	wl := NewFibonacci()
	p := workloads.Params{Target: compiler.Target{Compiler: compiler.ICC, Opt: compiler.O2}}
	if err := wl.Prepare(p); err != nil {
		t.Fatal(err)
	}
	rep, err := newNode(t, 16).RunWorkload(wl)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := compiler.PaperEntry(compiler.AppFibonacci, compiler.Target{Compiler: compiler.ICC, Opt: compiler.O2})
	if math.Abs(rep.Elapsed.Seconds()-want.Seconds)/want.Seconds > 0.12 {
		t.Errorf("ICC fib time = %.2f s, paper %.1f s", rep.Elapsed.Seconds(), want.Seconds)
	}
	if math.Abs(float64(rep.AvgPower)-want.Watts)/want.Watts > 0.08 {
		t.Errorf("ICC fib power = %.1f W, paper %.1f W", float64(rep.AvgPower), want.Watts)
	}
}

func TestDijkstraBaseline(t *testing.T) {
	checkBaseline(t, NewDijkstra(), 0.12, 0.08)
}

func TestDijkstraScalesToEight(t *testing.T) {
	wl := NewDijkstra()
	if err := wl.Prepare(workloads.Params{Scale: 0.3}); err != nil {
		t.Fatal(err)
	}
	times := map[int]float64{}
	for _, k := range []int{1, 8, 16} {
		rep, err := newNode(t, k).RunWorkload(wl)
		if err != nil {
			t.Fatal(err)
		}
		times[k] = rep.Elapsed.Seconds()
	}
	s8 := times[1] / times[8]
	s16 := times[1] / times[16]
	if s8 < 5.5 {
		t.Errorf("dijkstra speedup at 8 = %.1f, want ~7-8", s8)
	}
	// Past the knee it flattens; 16 threads must not be meaningfully
	// faster than 8, and may be slightly slower (oversubscription).
	if s16 > s8*1.1 {
		t.Errorf("dijkstra keeps scaling past 8: s8=%.1f s16=%.1f", s8, s16)
	}
}

func TestMicroValidationCatchesCorruption(t *testing.T) {
	// Validate must actually check answers: a prepared-but-never-run
	// workload fails validation.
	for _, wl := range []workloads.Workload{NewReduction(), NewNQueens(), NewMergesort(), NewFibonacci(), NewDijkstra()} {
		if err := wl.Prepare(workloads.Params{Scale: 0.05}); err != nil {
			t.Fatalf("%s: %v", wl.Name(), err)
		}
		if err := wl.Validate(); err == nil {
			t.Errorf("%s: Validate passed without a run", wl.Name())
		}
	}
}

// TestMicroInputsMemoized: two reduction, mergesort, dijkstra or BT
// instances prepared for one input share one read-only reference (the
// array, mergesort's sorted halves, dijkstra's graph and distances, BT's
// initial grid), a run of one leaves the other valid, and another input
// gets its own reference.
func TestMicroInputsMemoized(t *testing.T) {
	reseed := workloads.Params{Scale: 0.01, Seed: 7}
	resize := workloads.Params{Scale: 0.02}
	cases := []struct {
		name string
		make func() workloads.Workload
		// shared returns the addresses of the reference's first
		// elements.
		shared func(workloads.Workload) any
		// others are inputs that must not hit the entry; dijkstra's
		// graph does not depend on Scale.
		others []workloads.Params
	}{
		{"reduction", func() workloads.Workload { return NewReduction() },
			func(w workloads.Workload) any { return &w.(*Reduction).data[0] },
			[]workloads.Params{reseed, resize}},
		{"mergesort", func() workloads.Workload { return NewMergesort() },
			func(w workloads.Workload) any {
				s := w.(*Mergesort)
				return [3]*int32{&s.data[0], &s.halves[0], &s.merge.full[0]}
			},
			[]workloads.Params{reseed, resize}},
		{"dijkstra", func() workloads.Workload { return NewDijkstra() },
			func(w workloads.Workload) any {
				d := w.(*Dijkstra)
				return [2]any{&d.adj[0], &d.want[0]}
			},
			[]workloads.Params{reseed}},
		// BT's grid and checksum depend on no parameter.
		{"bt", func() workloads.Workload { return NewBT() },
			func(w workloads.Workload) any { return &w.(*BT).grid[0] },
			nil},
	}
	p := workloads.Params{Scale: 0.01}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prepare := func(p workloads.Params) workloads.Workload {
				wl := c.make()
				if err := wl.Prepare(p); err != nil {
					t.Fatal(err)
				}
				return wl
			}
			a, b := prepare(p), prepare(p)
			if c.shared(a) != c.shared(b) {
				t.Fatal("two instances prepared from one input do not share the reference")
			}
			for _, wl := range []workloads.Workload{a, b, a} {
				if _, err := newNode(t, 16).RunWorkload(wl); err != nil {
					t.Fatal(err)
				}
			}
			if err := b.Validate(); err != nil {
				t.Errorf("a's second run invalidated b: %v", err)
			}
			for _, other := range c.others {
				if c.shared(prepare(other)) == c.shared(a) {
					t.Errorf("%+v hit the entry of %+v", other, p)
				}
			}
		})
	}
}

// TestMergesortHalvesReference: the reference's halves are the input's
// halves, each sorted.
func TestMergesortHalvesReference(t *testing.T) {
	in := buildMergesortInput(inputKey{seed: 1, n: 1001})
	mid := len(in.data) / 2
	for _, h := range [][2]int{{0, mid}, {mid, len(in.data)}} {
		want := slices.Clone(in.data[h[0]:h[1]])
		slices.Sort(want)
		if !slices.Equal(in.halves[h[0]:h[1]], want) {
			t.Errorf("half [%d:%d) is not the input's half sorted", h[0], h[1])
		}
	}
}

// TestMergesortFullReference: the reference's sorted array is the
// input sorted, and the root's merge copies it only when the sections
// left the reference's halves: a run whose section was lost merges what
// it left, as MergeInt32 makes it.
func TestMergesortFullReference(t *testing.T) {
	in := buildMergesortInput(inputKey{seed: 1, n: 1001})
	want := slices.Clone(in.data)
	slices.Sort(want)
	if !slices.Equal(in.full, want) {
		t.Error("the reference's sorted array is not the input sorted")
	}
	s := NewMergesort()
	if err := s.Prepare(workloads.Params{Scale: 0.01}); err != nil {
		t.Fatal(err)
	}
	shared := s.halves
	mid := len(s.data) / 2
	s.halves = slices.Clone(shared)
	copy(s.halves[:mid], s.data[:mid])
	if _, err := newNode(t, 2).RunWorkload(s); err == nil {
		t.Error("a run that lost a section validates")
	}
	merged := make([]int32, len(s.data))
	workloads.MergeInt32(merged, s.halves[:mid], s.halves[mid:])
	if !slices.Equal(s.out, merged) {
		t.Error("the root of a run that lost a section did not merge what the sections left")
	}
	s.halves = shared
	if _, err := newNode(t, 2).RunWorkload(s); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(s.out, s.merge.full) {
		t.Error("a clean run's output is not the reference's sorted array")
	}
}

// TestMergesortValidateCatchesLostSection: a run in which a section did
// not copy its sorted half fails Validate, on a second run too (the
// root copies the unsorted input into work before the sections run, so
// a lost section cannot leave the previous run's half behind). The
// reference is replaced by a copy whose half is unsorted, which is what
// work holds where a section was lost.
func TestMergesortValidateCatchesLostSection(t *testing.T) {
	s := NewMergesort()
	if err := s.Prepare(workloads.Params{Scale: 0.01}); err != nil {
		t.Fatal(err)
	}
	if _, err := newNode(t, 2).RunWorkload(s); err != nil {
		t.Fatal(err)
	}
	shared := s.halves
	mid := len(s.data) / 2
	for _, h := range [][2]int{{0, mid}, {mid, len(s.data)}} {
		lost := slices.Clone(shared)
		copy(lost[h[0]:h[1]], s.data[h[0]:h[1]])
		s.halves = lost
		if _, err := newNode(t, 2).RunWorkload(s); err == nil {
			t.Errorf("a run that lost the section of [%d:%d) validates", h[0], h[1])
		}
	}
	s.halves = shared
	if _, err := newNode(t, 2).RunWorkload(s); err != nil {
		t.Errorf("restored run: %v", err)
	}
}

// TestFibonacciValidateCountsLeaves: a run that lost one leaf task's
// charge, or charged one twice, fails Validate although its value is
// right.
func TestFibonacciValidateCountsLeaves(t *testing.T) {
	w := NewFibonacci()
	if err := w.Prepare(workloads.Params{Scale: 0.05}); err != nil {
		t.Fatal(err)
	}
	if _, err := newNode(t, 16).RunWorkload(w); err != nil {
		t.Fatal(err)
	}
	for _, times := range []int64{-1, 1} { // lost, repeated
		w.leaves.Add(times)
		if err := w.Validate(); err == nil {
			t.Errorf("a run with a leaf counted %+d times extra validates", times)
		}
		w.leaves.Add(-times)
	}
	if err := w.Validate(); err != nil {
		t.Errorf("restored run: %v", err)
	}
}

func TestMicroOptLevelOrdering(t *testing.T) {
	// -O0 must be substantially slower than -O2 for nqueens (14.5 vs
	// 5.5 s in Table II).
	run := func(opt compiler.OptLevel) float64 {
		wl := NewNQueens()
		p := workloads.Params{Target: compiler.Target{Compiler: compiler.GCC, Opt: opt}, Scale: 0.2}
		if err := wl.Prepare(p); err != nil {
			t.Fatal(err)
		}
		rep, err := newNode(t, 16).RunWorkload(wl)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Elapsed.Seconds()
	}
	o0 := run(compiler.O0)
	o2 := run(compiler.O2)
	ratio := o0 / o2
	if math.Abs(ratio-14.5/5.5) > 0.5 {
		t.Errorf("nqueens O0/O2 = %.2f, paper %.2f", ratio, 14.5/5.5)
	}
}

func TestBTMatchesFootnoteWarmFigures(t *testing.T) {
	// §II-C footnote 2 gives BT.C's warm numbers: 25477 J at 155.8 W
	// (~163.5 s at 16 threads).
	wl := NewBT()
	if err := wl.Prepare(workloads.Params{}); err != nil {
		t.Fatal(err)
	}
	rep, err := newNode(t, 16).RunWorkload(wl)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.Elapsed.Seconds()-163.5)/163.5 > 0.05 {
		t.Errorf("BT time = %.1f s, want ~163.5 s", rep.Elapsed.Seconds())
	}
	if math.Abs(float64(rep.AvgPower)-155.8)/155.8 > 0.05 {
		t.Errorf("BT power = %.1f W, footnote says 155.8 W", float64(rep.AvgPower))
	}
	if math.Abs(float64(rep.Energy)-25477)/25477 > 0.05 {
		t.Errorf("BT energy = %.0f J, footnote says 25477 J", float64(rep.Energy))
	}
}

func TestBTValidatesAcrossThreadCounts(t *testing.T) {
	wl := NewBT()
	if err := wl.Prepare(workloads.Params{Scale: 0.05}); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 16} {
		if _, err := newNode(t, k).RunWorkload(wl); err != nil {
			t.Fatalf("%d threads: %v", k, err)
		}
	}
	// Not run yet after Prepare alone.
	fresh := NewBT()
	if err := fresh.Prepare(workloads.Params{Scale: 0.05}); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Validate(); err == nil {
		t.Error("Validate passed without a run")
	}
}

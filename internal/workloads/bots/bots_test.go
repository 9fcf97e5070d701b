package bots

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

// checkTarget runs a workload at 16 threads and compares against the
// paper entry for the given target.
func checkTarget(t *testing.T, wl workloads.Workload, target compiler.Target, timeTol, powerTol float64) {
	t.Helper()
	if err := wl.Prepare(workloads.Params{Target: target}); err != nil {
		t.Fatal(err)
	}
	rep, err := newNode(t, 16).RunWorkload(wl)
	if err != nil {
		t.Fatal(err)
	}
	want, ok := compiler.PaperEntry(wl.Name(), target)
	if !ok {
		t.Fatalf("no paper entry for %s %v", wl.Name(), target)
	}
	gotSec := rep.Elapsed.Seconds()
	if math.Abs(gotSec-want.Seconds)/want.Seconds > timeTol {
		t.Errorf("%s %v: time = %.2f s, paper %.2f s", wl.Name(), target, gotSec, want.Seconds)
	}
	gotW := float64(rep.AvgPower)
	if math.Abs(gotW-want.Watts)/want.Watts > powerTol {
		t.Errorf("%s %v: power = %.1f W, paper %.1f W", wl.Name(), target, gotW, want.Watts)
	}
	t.Logf("%s %v: %.2f s / %.1f W (paper %.1f s / %.1f W)",
		wl.Name(), target, gotSec, gotW, want.Seconds, want.Watts)
}

func TestAlignmentForBaseline(t *testing.T) {
	checkTarget(t, NewAlignmentFor(), compiler.Baseline, 0.12, 0.08)
}

func TestAlignmentSingleBaseline(t *testing.T) {
	checkTarget(t, NewAlignmentSingle(), compiler.Baseline, 0.12, 0.08)
}

func TestAlignmentICC(t *testing.T) {
	checkTarget(t, NewAlignmentFor(), compiler.Target{Compiler: compiler.ICC, Opt: compiler.O2}, 0.12, 0.08)
}

// TestAlignmentValidateCountsPairs: a run that lost one pair task, or
// ran one twice, fails Validate, also when the pair's score would leave
// the sum as it was.
func TestAlignmentValidateCountsPairs(t *testing.T) {
	for _, a := range []*Alignment{NewAlignmentFor(), NewAlignmentSingle()} {
		mustPrepare(t, a, workloads.Params{Scale: 0.1})
		mustRun(t, a)
		for _, times := range []int64{-1, 1} { // lost, repeated
			for _, score := range []int64{int64(a.scores[0]), 0} {
				a.got.Add(times * score)
				a.done.Add(times)
				if err := a.Validate(); err == nil {
					t.Errorf("%s: a run with a pair of score %d counted %+d times extra validates", a.Name(), score, times)
				}
				a.got.Add(-times * score)
				a.done.Add(-times)
			}
		}
		if err := a.Validate(); err != nil {
			t.Errorf("%s: restored run: %v", a.Name(), err)
		}
	}
}

func TestFibCutoffBaselineGCC(t *testing.T) {
	checkTarget(t, NewFib(), compiler.Baseline, 0.12, 0.08)
}

func TestFibCutoffICCHighPower(t *testing.T) {
	// ICC's fib-with-cutoff draws ~157 W versus GCC's 96.5 W (the
	// starkest compiler power contrast in the study).
	checkTarget(t, NewFib(), compiler.Target{Compiler: compiler.ICC, Opt: compiler.O2}, 0.12, 0.08)
}

func TestHealthBaseline(t *testing.T) {
	checkTarget(t, NewHealth(), compiler.Baseline, 0.15, 0.08)
}

func TestNQueensCutoffBaseline(t *testing.T) {
	checkTarget(t, NewNQueens(), compiler.Baseline, 0.12, 0.08)
}

func TestSortCutoffBaseline(t *testing.T) {
	checkTarget(t, NewSort(), compiler.Baseline, 0.15, 0.08)
}

func TestSparseLUSingleBaseline(t *testing.T) {
	checkTarget(t, NewSparseLUSingle(), compiler.Baseline, 0.12, 0.08)
}

func TestSparseLUForICC(t *testing.T) {
	// The -for variant only exists as an ICC build in the paper.
	checkTarget(t, NewSparseLUFor(), compiler.Target{Compiler: compiler.ICC, Opt: compiler.O2}, 0.12, 0.08)
}

func TestSparseLUForRejectsGCC(t *testing.T) {
	wl := NewSparseLUFor()
	err := wl.Prepare(workloads.Params{Target: compiler.Baseline})
	if err == nil {
		t.Error("sparselu-for accepted a GCC build the paper never measured")
	}
}

func TestStrassenBaseline(t *testing.T) {
	checkTarget(t, NewStrassen(), compiler.Baseline, 0.12, 0.08)
}

// speedup16 measures T(1)/T(16) for a prepared workload.
func speedup16(t *testing.T, wl workloads.Workload) float64 {
	t.Helper()
	r1, err := newNode(t, 1).RunWorkload(wl)
	if err != nil {
		t.Fatal(err)
	}
	r16, err := newNode(t, 16).RunWorkload(wl)
	if err != nil {
		t.Fatal(err)
	}
	return r1.Elapsed.Seconds() / r16.Elapsed.Seconds()
}

func TestHealthSpeedupKnee(t *testing.T) {
	wl := NewHealth()
	if err := wl.Prepare(workloads.Params{}); err != nil {
		t.Fatal(err)
	}
	s := speedup16(t, wl)
	// Paper: health saturates at ~6.7.
	if s < 5 || s > 8.5 {
		t.Errorf("health speedup at 16 = %.1f, paper ~6.7", s)
	}
}

func TestSortSpeedupKnee(t *testing.T) {
	wl := NewSort()
	if err := wl.Prepare(workloads.Params{Scale: 0.5}); err != nil {
		t.Fatal(err)
	}
	s := speedup16(t, wl)
	// Paper: sort saturates at ~12.6.
	if s < 9.5 || s > 15 {
		t.Errorf("sort speedup at 16 = %.1f, paper ~12.6", s)
	}
}

// TestSortUnequalLeafBlocks runs Sort at an element count that is not a
// multiple of its 64 leaf blocks, so the blocks (and the ranges of buf
// their radix sorts use as scratch) differ in length, and validates the
// result at one worker and at sixteen.
func TestSortUnequalLeafBlocks(t *testing.T) {
	wl := NewSort()
	if err := wl.Prepare(workloads.Params{Scale: 0.01}); err != nil {
		t.Fatal(err)
	}
	if n := len(wl.data); n%sortBlocks == 0 {
		t.Fatalf("%d elements split evenly into %d blocks", n, sortBlocks)
	}
	for _, workers := range []int{1, 16} {
		if _, err := newNode(t, workers).RunWorkload(wl); err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
	}
}

// TestSortLeafReference: each leaf block of the reference is the
// input's block sorted, at an element count the blocks do not divide
// evenly.
func TestSortLeafReference(t *testing.T) {
	in := buildSortInput(sortKey{seed: 1, n: 100*sortBlocks + 37})
	for b := 0; b < sortBlocks; b++ {
		lo, hi := sortBlock(b, len(in.data))
		want := slices.Clone(in.data[lo:hi])
		slices.Sort(want)
		if !slices.Equal(in.leaves[lo:hi], want) {
			t.Fatalf("block %d [%d:%d) is not the input's block sorted", b, lo, hi)
		}
	}
}

// TestSortLevelReference: each run of every level of the reference is
// the input's range sorted, and level 0 is the leaf blocks, at an
// element count the blocks do not divide evenly.
func TestSortLevelReference(t *testing.T) {
	in := buildSortInput(sortKey{seed: 1, n: 100*sortBlocks + 37})
	runs := sortLevels(len(in.data))
	if len(in.levels) != len(runs) || len(runs) != 7 {
		t.Fatalf("%d reference levels for %d levels of runs, want 7", len(in.levels), len(runs))
	}
	if &in.levels[0][0] != &in.leaves[0] {
		t.Error("level 0 is not the leaf blocks")
	}
	for l, level := range runs {
		for _, r := range level {
			want := slices.Clone(in.data[r[0]:r[1]])
			slices.Sort(want)
			if !slices.Equal(in.levels[l][r[0]:r[1]], want) {
				t.Fatalf("level %d run [%d:%d) is not the input's range sorted", l, r[0], r[1])
			}
		}
	}
}

// TestSortCleanRunCopiesEveryMerge: in a run whose leaves copied the
// reference, every merge task finds its inputs in the reference and
// copies its output from it.
func TestSortCleanRunCopiesEveryMerge(t *testing.T) {
	s := mustPrepare(t, NewSort(), workloads.Params{Scale: 0.1}).(*Sort)
	mustRun(t, s)
	if m := s.merged.Load(); m != 0 {
		t.Errorf("%d merge tasks of a clean run merged on the host, want 0", m)
	}
}

// TestSortLeafFaultMerges: a run whose leaf left its block unsorted
// merges on the host where that block's elements flow, and no run
// leaves the previous run's count behind.
func TestSortLeafFaultMerges(t *testing.T) {
	s := mustPrepare(t, NewSort(), workloads.Params{Scale: 0.1}).(*Sort)
	shared := s.leaves
	s.leaves = slices.Clone(shared)
	lo, hi := sortBlock(3, len(s.data))
	copy(s.leaves[lo:hi], s.data[lo:hi])
	if _, err := newNode(t, 16).RunWorkload(s); err == nil {
		t.Error("a run whose leaf 3 was lost validates")
	}
	if s.merged.Load() == 0 {
		t.Error("no merge task of a run with a lost leaf merged on the host")
	}
	s.leaves = shared
	mustRun(t, s)
	if m := s.merged.Load(); m != 0 {
		t.Errorf("restored run: %d merge tasks merged on the host", m)
	}
}

// TestSortMergeSpansSplitAsCilksort: the merge tasks of every pair of
// every level are the ones cilksort's parMerge spawns, in its order:
// it swaps its two pieces so that the longer one comes first, splits
// that one at its midpoint, and recurses on the halves. The task tree
// is what the run charges, so a different one would move simulated
// numbers.
func TestSortMergeSpansSplitAsCilksort(t *testing.T) {
	n := 100*sortBlocks + 37
	in := buildSortInput(sortKey{seed: 1, n: n})
	grain := n / sortBlocks
	type task struct{ d0, na, nb int }
	var cilk func(tasks []task, d0 int, a, b []int32) []task
	cilk = func(tasks []task, d0 int, a, b []int32) []task {
		if len(a)+len(b) <= grain || len(a) == 0 || len(b) == 0 {
			return append(tasks, task{d0, len(a), len(b)})
		}
		if len(a) < len(b) {
			a, b = b, a
		}
		mid, cut := splitRun(a, b)
		tasks = cilk(tasks, d0, a[:mid], b[:cut])
		return cilk(tasks, d0+mid+cut, a[mid:], b[cut:])
	}
	runs := sortLevels(n)
	for l := 1; l < len(runs); l++ {
		src := in.levels[l-1]
		for _, p := range mergePairs(l, runs[l-1]) {
			want := cilk(nil, p.lo, src[p.lo:p.mid], src[p.mid:p.hi])
			var got []task
			for _, sp := range mergeSpans(nil, src, mergeSpan{p.lo, p.mid, p.mid, p.hi, false}, grain) {
				na, nb := sp.x1-sp.x0, sp.y1-sp.y0
				if sp.yLead {
					na, nb = nb, na
				}
				got = append(got, task{sp.x0 + sp.y0 - p.mid, na, nb})
			}
			if !slices.Equal(got, want) {
				t.Fatalf("level %d pair [%d:%d): tasks %v, cilksort's %v", l, p.lo, p.hi, got, want)
			}
		}
	}
}

// TestSortMergeFallsBack: merge tasks of level 2 whose inputs are not
// the reference's merge them on the host, and every task's output is
// MergeInt32 of its own inputs. The inputs are level 1 of the
// reference with one element changed: to its neighbour's value, which
// keeps the run sorted, so that the whole pair's output is MergeInt32 of
// the changed runs; or to a large value, which leaves it unsorted. A
// task whose inputs are the reference's but whose span cuts the pair
// elsewhere than the reference merge does falls back too.
func TestSortMergeFallsBack(t *testing.T) {
	n := 100*sortBlocks + 37
	s := &Sort{levels: buildSortInput(sortKey{seed: 1, n: n}).levels}
	p := mergePairs(2, sortLevels(n)[1])[0]
	grain := n / sortBlocks
	run := func(src []int32) (dst []int32, merged int) {
		dst = make([]int32, n)
		spans := mergeSpans(nil, src, mergeSpan{p.lo, p.mid, p.mid, p.hi, false}, grain)
		if len(spans) < 3 {
			t.Fatalf("the pair splits into %d tasks, want several", len(spans))
		}
		for _, sp := range spans {
			if !s.merge(src, dst, p, sp) {
				merged++
			}
			want := make([]int32, sp.x1-sp.x0+sp.y1-sp.y0)
			workloads.MergeInt32(want, src[sp.x0:sp.x1], src[sp.y0:sp.y1])
			if d0 := sp.x0 + sp.y0 - p.mid; !slices.Equal(dst[d0:d0+len(want)], want) {
				t.Fatalf("task %+v did not write MergeInt32 of its inputs", sp)
			}
		}
		return dst, merged
	}
	if _, merged := run(s.levels[1]); merged != 0 {
		t.Fatalf("%d tasks on the reference's inputs merged on the host", merged)
	}
	at := p.lo + (p.mid-p.lo)/3
	for name, v := range map[string]int32{"sorted": s.levels[1][at-1], "unsorted": math.MaxInt32} {
		src := slices.Clone(s.levels[1])
		src[at] = v
		if src[at] == s.levels[1][at] {
			t.Fatalf("%s: the change leaves the element as it was", name)
		}
		dst, merged := run(src)
		if merged == 0 {
			t.Errorf("%s: no task merged on the host", name)
		}
		if name == "sorted" {
			want := make([]int32, p.hi-p.lo)
			workloads.MergeInt32(want, src[p.lo:p.mid], src[p.mid:p.hi])
			if !slices.Equal(dst[p.lo:p.hi], want) {
				t.Errorf("%s: the pair's output is not MergeInt32 of its changed runs", name)
			}
		}
	}
	// The reference's inputs, cut where the reference merge does not cut
	// the pair: one element of the first run against the whole second.
	ref := s.levels[1]
	sp := mergeSpan{p.lo, p.lo + 1, p.mid, p.hi, false}
	if p.cuts(ref, sp.x1, sp.y1) {
		t.Fatalf("span %+v cuts the pair where the reference merge does", sp)
	}
	dst, want := make([]int32, n), make([]int32, 1+p.hi-p.mid)
	if s.merge(ref, dst, p, sp) {
		t.Errorf("span %+v copied the reference", sp)
	}
	workloads.MergeInt32(want, ref[sp.x0:sp.x1], ref[sp.y0:sp.y1])
	if !slices.Equal(dst[p.lo:p.lo+len(want)], want) {
		t.Errorf("span %+v did not write MergeInt32 of its inputs", sp)
	}
}

// TestSortValidateCatchesLeafFaults: a run in which a leaf task was lost
// or copied another block fails Validate. The reference is replaced by
// a copy in which one block holds what that fault leaves in work: the
// unsorted input (the root copies it into work before the leaves run),
// or the sorted neighbouring block. The merge levels run as they do.
func TestSortValidateCatchesLeafFaults(t *testing.T) {
	s := mustPrepare(t, NewSort(), workloads.Params{Scale: 0.1}).(*Sort)
	mustRun(t, s)
	shared := s.leaves
	n := len(s.data)
	faults := map[string]func(leaves []int32, lo, hi int){
		"lost": func(leaves []int32, lo, hi int) { copy(leaves[lo:hi], s.data[lo:hi]) },
		"wrong block": func(leaves []int32, lo, hi int) {
			nlo, nhi := sortBlock(1, n)
			copy(leaves[lo:hi], shared[nlo:nhi])
		},
	}
	for name, fault := range faults {
		for _, b := range []int{0, sortBlocks - 1} {
			lo, hi := sortBlock(b, n)
			s.leaves = slices.Clone(shared)
			fault(s.leaves, lo, hi)
			if _, err := newNode(t, 16).RunWorkload(s); err == nil {
				t.Errorf("a run whose leaf %d was %s validates", b, name)
			}
		}
	}
	s.leaves = shared
	if _, err := newNode(t, 16).RunWorkload(s); err != nil {
		t.Errorf("restored run: %v", err)
	}
}

// TestFibValidateCountsLeaves: a run that lost one leaf task's charge,
// or charged one twice, fails Validate although its value is right: the
// tree has 2^9 = 512 leaves.
func TestFibValidateCountsLeaves(t *testing.T) {
	w := mustPrepare(t, NewFib(), workloads.Params{Scale: 0.1}).(*Fib)
	mustRun(t, w)
	if n := w.leaves.Load(); n != 512 {
		t.Fatalf("%d leaves ran, want 512", n)
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

func TestStrassenSpeedupKnee(t *testing.T) {
	wl := NewStrassen()
	if err := wl.Prepare(workloads.Params{}); err != nil {
		t.Fatal(err)
	}
	s := speedup16(t, wl)
	// Paper: strassen saturates at ~4.9.
	if s < 3.8 || s > 6.2 {
		t.Errorf("strassen speedup at 16 = %.1f, paper ~4.9", s)
	}
}

func TestFibCutoffScalesUnlikeMicroFib(t *testing.T) {
	// The whole point of the cutoff: BOTS fib scales near-linearly where
	// the untuned micro version anti-scales.
	wl := NewFib()
	if err := wl.Prepare(workloads.Params{Scale: 0.3}); err != nil {
		t.Fatal(err)
	}
	s := speedup16(t, wl)
	if s < 11 {
		t.Errorf("bots-fib speedup at 16 = %.1f, want near-linear", s)
	}
}

func TestAlignmentVariantsAgree(t *testing.T) {
	// Both task-generation patterns compute the same answer in similar
	// time (paper: 1.5 s for both at GCC -O2).
	times := map[string]float64{}
	for _, wl := range []workloads.Workload{NewAlignmentFor(), NewAlignmentSingle()} {
		if err := wl.Prepare(workloads.Params{}); err != nil {
			t.Fatal(err)
		}
		rep, err := newNode(t, 16).RunWorkload(wl)
		if err != nil {
			t.Fatal(err)
		}
		times[wl.Name()] = rep.Elapsed.Seconds()
	}
	a, b := times[compiler.AppAlignmentFor], times[compiler.AppAlignmentSingle]
	if math.Abs(a-b)/a > 0.2 {
		t.Errorf("alignment variants diverge: for=%.2fs single=%.2fs", a, b)
	}
}

func TestBOTSValidationCatchesMissingRun(t *testing.T) {
	for _, wl := range []workloads.Workload{
		NewAlignmentFor(), NewFib(), NewHealth(), NewNQueens(), NewSort(), NewSparseLUSingle(), NewStrassen(),
	} {
		if err := wl.Prepare(workloads.Params{Scale: 0.2}); err != nil {
			t.Fatalf("%s: %v", wl.Name(), err)
		}
		if err := wl.Validate(); err == nil {
			t.Errorf("%s: Validate passed without a run", wl.Name())
		}
	}
}

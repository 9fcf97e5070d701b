package bots

import (
	"math"
	"testing"
	"time"

	"repro/internal/compiler"
	"repro/internal/machine"
	"repro/internal/workloads"
)

func newMachine(t *testing.T) *machine.Machine {
	t.Helper()
	cfg := machine.M620()
	cfg.VirtualTimeLimit = 30 * time.Minute
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	m.WarmAll(workloads.WarmTemp)
	return m
}

// checkTarget runs a workload at 16 threads and compares against the
// paper entry for the given target.
func checkTarget(t *testing.T, wl workloads.Workload, target compiler.Target, timeTol, powerTol float64) {
	t.Helper()
	if err := wl.Prepare(workloads.Params{Target: target}); err != nil {
		t.Fatal(err)
	}
	m := newMachine(t)
	rep, err := workloads.RunOnce(m, wl, 16)
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
	m := newMachine(t)
	r1, err := workloads.RunOnce(m, wl, 1)
	if err != nil {
		t.Fatal(err)
	}
	r16, err := workloads.RunOnce(m, wl, 16)
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
	m := newMachine(t)
	for _, workers := range []int{1, 16} {
		if _, err := workloads.RunOnce(m, wl, workers); err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
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
	m := newMachine(t)
	times := map[string]float64{}
	for _, wl := range []workloads.Workload{NewAlignmentFor(), NewAlignmentSingle()} {
		if err := wl.Prepare(workloads.Params{}); err != nil {
			t.Fatal(err)
		}
		rep, err := workloads.RunOnce(m, wl, 16)
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

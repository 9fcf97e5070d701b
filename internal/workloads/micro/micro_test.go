package micro

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/compiler"
	"repro/internal/machine"
	"repro/internal/workloads"
)

// newMachine builds a warm M620 with a generous watchdog.
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

// checkBaseline runs a workload at 16 threads / GCC -O2 and compares the
// measured time and power against the paper's Table I cell.
func checkBaseline(t *testing.T, wl workloads.Workload, timeTol, powerTol float64) {
	t.Helper()
	if err := wl.Prepare(workloads.Params{}); err != nil {
		t.Fatal(err)
	}
	m := newMachine(t)
	rep, err := workloads.RunOnce(m, wl, 16)
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
	m := newMachine(t)
	t1, err := workloads.RunOnce(m, wl, 1)
	if err != nil {
		t.Fatal(err)
	}
	t16, err := workloads.RunOnce(m, wl, 16)
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
	m := newMachine(t)
	t1, err := workloads.RunOnce(m, wl, 1)
	if err != nil {
		t.Fatal(err)
	}
	t16, err := workloads.RunOnce(m, wl, 16)
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
	m := newMachine(t)
	t1, err := workloads.RunOnce(m, wl, 1)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := workloads.RunOnce(m, wl, 2)
	if err != nil {
		t.Fatal(err)
	}
	t16, err := workloads.RunOnce(m, wl, 16)
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
	m := newMachine(t)
	t1, err := workloads.RunOnce(m, wl, 1)
	if err != nil {
		t.Fatal(err)
	}
	t16, err := workloads.RunOnce(m, wl, 16)
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
	m := newMachine(t)
	rep, err := workloads.RunOnce(m, wl, 16)
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
	m := newMachine(t)
	times := map[int]float64{}
	for _, k := range []int{1, 8, 16} {
		rep, err := workloads.RunOnce(m, wl, k)
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

func TestMicroOptLevelOrdering(t *testing.T) {
	// -O0 must be substantially slower than -O2 for nqueens (14.5 vs
	// 5.5 s in Table II).
	run := func(opt compiler.OptLevel) float64 {
		wl := NewNQueens()
		p := workloads.Params{Target: compiler.Target{Compiler: compiler.GCC, Opt: opt}, Scale: 0.2}
		if err := wl.Prepare(p); err != nil {
			t.Fatal(err)
		}
		m := newMachine(t)
		rep, err := workloads.RunOnce(m, wl, 16)
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
	m := newMachine(t)
	rep, err := workloads.RunOnce(m, wl, 16)
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
	m := newMachine(t)
	for _, k := range []int{1, 16} {
		if _, err := workloads.RunOnce(m, wl, k); err != nil {
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

// TestSerialMergesort checks the base-run radix sort plus ping-pong merge
// passes against the standard library: every short length (one partial
// base run, no merge pass), and lengths on both sides of 1, 2, 3 and 5
// base runs — 1 to 6 runs, so 0 to 3 merge passes, and both parities (an
// odd number of passes leaves the result in the scratch buffer and it is
// copied back).
func TestSerialMergesort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var lengths []int
	for n := 0; n <= 70; n++ {
		lengths = append(lengths, n)
	}
	for _, runs := range []int{1, 2, 3, 5} {
		n := runs * mergesortBaseRun
		lengths = append(lengths, n-1, n, n+1)
	}
	for _, n := range lengths {
		a := make([]int32, n)
		for i := range a {
			a[i] = int32(rng.Intn(50) - 25)
		}
		want := slices.Clone(a)
		slices.Sort(want)
		serialMergesort(a, make([]int32, n))
		if !slices.Equal(a, want) {
			t.Fatalf("n=%d: result differs from slices.Sort", n)
		}
	}
}

// BenchmarkSerialMergesort sorts one million random elements, the size
// of one Mergesort section at full scale; refilling the array from the
// unsorted master is part of the run, as it is in Mergesort.Root.
func BenchmarkSerialMergesort(b *testing.B) {
	const n = 1_000_000
	rng := rand.New(rand.NewSource(1))
	master := make([]int32, n)
	for i := range master {
		master[i] = int32(rng.Uint32())
	}
	a, buf := make([]int32, n), make([]int32, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(a, master)
		serialMergesort(a, buf)
	}
}

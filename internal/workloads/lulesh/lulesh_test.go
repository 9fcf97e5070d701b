package lulesh

import (
	"math"
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
	cfg.VirtualTimeLimit = 60 * time.Minute
	sys, err := core.New(core.Options{Machine: cfg, Workers: workers, Warm: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	return sys
}

func TestBaselineGCC(t *testing.T) {
	wl := New()
	if err := wl.Prepare(workloads.Params{}); err != nil {
		t.Fatal(err)
	}
	rep, err := newNode(t, 16).RunWorkload(wl)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := compiler.PaperEntry(compiler.AppLULESH, compiler.Baseline)
	if math.Abs(rep.Elapsed.Seconds()-want.Seconds)/want.Seconds > 0.12 {
		t.Errorf("time = %.1f s, paper %.1f s", rep.Elapsed.Seconds(), want.Seconds)
	}
	if math.Abs(float64(rep.AvgPower)-want.Watts)/want.Watts > 0.08 {
		t.Errorf("power = %.1f W, paper %.1f W", float64(rep.AvgPower), want.Watts)
	}
	t.Logf("lulesh gcc -O2: %.1f s / %.1f W (paper %.1f / %.1f)",
		rep.Elapsed.Seconds(), float64(rep.AvgPower), want.Seconds, want.Watts)
}

func TestICCMuchFaster(t *testing.T) {
	// Paper: ICC's LULESH runs 14.5 s versus GCC's 48.6 s.
	wl := New()
	target := compiler.Target{Compiler: compiler.ICC, Opt: compiler.O2}
	if err := wl.Prepare(workloads.Params{Target: target}); err != nil {
		t.Fatal(err)
	}
	rep, err := newNode(t, 16).RunWorkload(wl)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := compiler.PaperEntry(compiler.AppLULESH, target)
	if math.Abs(rep.Elapsed.Seconds()-want.Seconds)/want.Seconds > 0.12 {
		t.Errorf("ICC time = %.1f s, paper %.1f s", rep.Elapsed.Seconds(), want.Seconds)
	}
}

func TestSpeedupSaturates(t *testing.T) {
	wl := New()
	if err := wl.Prepare(workloads.Params{Scale: 0.25}); err != nil {
		t.Fatal(err)
	}
	r1, err := newNode(t, 1).RunWorkload(wl)
	if err != nil {
		t.Fatal(err)
	}
	r16, err := newNode(t, 16).RunWorkload(wl)
	if err != nil {
		t.Fatal(err)
	}
	s := r1.Elapsed.Seconds() / r16.Elapsed.Seconds()
	// Paper figure: ~4-5x at 16 threads.
	if s < 3.5 || s > 6.0 {
		t.Errorf("lulesh speedup at 16 = %.1f, paper ~4-5", s)
	}
}

func TestBlastWavePropagates(t *testing.T) {
	// Physical sanity: after the run, energy has spread beyond the
	// origin but the total stays positive and bounded.
	wl := New()
	if err := wl.Prepare(workloads.Params{Scale: 0.1}); err != nil {
		t.Fatal(err)
	}
	if _, err := newNode(t, 8).RunWorkload(wl); err != nil {
		t.Fatal(err)
	}
	if wl.gotE[0] >= wl.gotE[1]*1e6 {
		t.Error("energy did not propagate from the origin")
	}
	neighbor := wl.gotE[wl.idx(1, 0, 0)]
	if neighbor <= 1e-6 {
		t.Errorf("neighbor element energy %g, want > initial background", neighbor)
	}
}

func TestValidateWithoutRun(t *testing.T) {
	wl := New()
	if err := wl.Prepare(workloads.Params{Scale: 0.1}); err != nil {
		t.Fatal(err)
	}
	if err := wl.Validate(); err == nil {
		t.Error("Validate passed without a run")
	}
}

// TestReferenceMemoized: instances prepared for different targets and
// scales share one serial reference, a run of one leaves the other
// valid, and the shared reference is what a fresh serial run computes.
func TestReferenceMemoized(t *testing.T) {
	prepare := func(p workloads.Params) *LULESH {
		wl := New()
		if err := wl.Prepare(p); err != nil {
			t.Fatal(err)
		}
		return wl
	}
	a := prepare(workloads.Params{Scale: 0.1})
	b := prepare(workloads.Params{Scale: 0.05, Target: compiler.Target{Compiler: compiler.ICC, Opt: compiler.O2}})
	if &a.wantE[0] != &b.wantE[0] {
		t.Fatal("two instances do not share the reference")
	}
	if a.parPerChunk == b.parPerChunk {
		t.Error("calibration shared across scales and targets")
	}
	for _, wl := range []*LULESH{a, b, a} {
		if _, err := newNode(t, 8).RunWorkload(wl); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Validate(); err != nil {
		t.Errorf("a's second run invalidated b: %v", err)
	}
	fresh := buildReference(refKey{meshEdge, timesteps})
	for i := range fresh {
		if a.wantE[i] != fresh[i] {
			t.Fatalf("element %d: shared reference %g, fresh serial run %g", i, a.wantE[i], fresh[i])
		}
	}
}

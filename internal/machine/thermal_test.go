package machine

import (
	"math"
	"testing"
	"time"
)

func TestThermalSteadyState(t *testing.T) {
	tp := M620().Thermal
	ss := tp.SteadyState(75) // one socket at the paper's High threshold
	want := tp.Ambient + 0.60*75
	if math.Abs(float64(ss-want)) > 1e-9 {
		t.Errorf("SteadyState(75W) = %v, want %v", ss, want)
	}
}

func TestThermalStepConvergesToSteadyState(t *testing.T) {
	tp := M620().Thermal
	T := tp.Ambient
	for i := 0; i < 600; i++ { // 10 minutes in 1 s steps
		T = tp.Step(T, 75, time.Second)
	}
	ss := tp.SteadyState(75)
	if math.Abs(float64(T-ss)) > 0.5 {
		t.Errorf("after 10 min, T = %v, want steady state %v", T, ss)
	}
}

func TestThermalStepMonotone(t *testing.T) {
	tp := M620().Thermal
	T := tp.Ambient
	prev := T
	for i := 0; i < 100; i++ {
		T = tp.Step(T, 75, time.Second)
		if T < prev {
			t.Fatalf("heating not monotone: %v after %v", T, prev)
		}
		prev = T
	}
	// Cooling from above steady state is also monotone.
	T = tp.SteadyState(75) + 30
	prev = T
	for i := 0; i < 100; i++ {
		T = tp.Step(T, 75, time.Second)
		if T > prev {
			t.Fatalf("cooling not monotone: %v after %v", T, prev)
		}
		prev = T
	}
}

func TestThermalStepTimeConstant(t *testing.T) {
	tp := M620().Thermal
	T0 := tp.Ambient
	ss := tp.SteadyState(100)
	// After exactly one time constant, the gap closes to 1/e.
	T := tp.Step(T0, 100, tp.TimeConstant)
	wantGap := float64(ss-T0) / math.E
	gotGap := float64(ss - T)
	if math.Abs(gotGap-wantGap) > 0.01*wantGap {
		t.Errorf("gap after one τ = %g, want %g", gotGap, wantGap)
	}
}

func TestThermalStepExactSplit(t *testing.T) {
	// Stepping 2 s must equal stepping 1 s twice (exact exponential).
	tp := M620().Thermal
	one := tp.Step(tp.Step(30, 120, time.Second), 120, time.Second)
	two := tp.Step(30, 120, 2*time.Second)
	if math.Abs(float64(one-two)) > 1e-9 {
		t.Errorf("1s+1s = %v, 2s = %v: integration not exact", one, two)
	}
}

func TestThermalStepZeroDuration(t *testing.T) {
	tp := M620().Thermal
	if got := tp.Step(55, 100, 0); got != 55 {
		t.Errorf("step(55, 100, 0) = %v, want 55", got)
	}
	if got := tp.Step(55, 100, -time.Second); got != 55 {
		t.Errorf("negative duration step = %v, want unchanged", got)
	}
}

func TestLeakageFactor(t *testing.T) {
	tp := M620().Thermal
	if got := tp.LeakageFactorAt(tp.LeakageRef); got != 1 {
		t.Errorf("leakage at reference = %g, want 1", got)
	}
	// A hot chip draws a few percent more (paper fn.2: ~3% cold effect).
	hot := tp.LeakageFactorAt(tp.LeakageRef + 30)
	if hot < 1.02 || hot > 1.06 {
		t.Errorf("leakage at +30°C = %g, want 1.02..1.06", hot)
	}
	// Never below the floor.
	if got := tp.LeakageFactorAt(-300); got != 0.9 {
		t.Errorf("leakage floor = %g, want 0.9", got)
	}
}

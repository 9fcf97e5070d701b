package experiments

import (
	"math"
	"testing"
	"time"

	"repro/internal/compiler"
	"repro/internal/machine"
)

// TestStepSizeInvariance checks that measured results do not depend on
// the engine's MaxStep: the step math must be exact for piecewise-
// constant rates, so a 10x finer step only costs host time.
func TestStepSizeInvariance(t *testing.T) {
	run := func(step time.Duration) Measurement {
		lab := NewLab()
		lab.Machine = machine.M620()
		lab.Machine.MaxStep = step
		m, err := lab.Measure(RunSpec{App: compiler.AppDijkstra, Target: compiler.Baseline, Workers: 16, Scale: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	coarse := run(2 * time.Millisecond)
	fine := run(200 * time.Microsecond)
	if math.Abs(coarse.Seconds-fine.Seconds)/fine.Seconds > 0.02 {
		t.Errorf("time depends on step size: %.4f s vs %.4f s", coarse.Seconds, fine.Seconds)
	}
	if math.Abs(coarse.Joules-fine.Joules)/fine.Joules > 0.02 {
		t.Errorf("energy depends on step size: %.1f J vs %.1f J", coarse.Joules, fine.Joules)
	}
}

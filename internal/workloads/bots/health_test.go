package bots

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/qthreads"
	"repro/internal/workloads"
)

// healthGolden is the serial reference at the default seed under the
// per-(village, step) PCG streams. A change of generator, of seeding or
// of the draw moves it, and should do so on purpose.
var healthGolden = healthTotals{Treated: 65519, Referred: 10896, Sick: 1608}

func preparedHealth(t testing.TB) *Health {
	t.Helper()
	h := NewHealth()
	if err := h.Prepare(workloads.Params{}); err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHealthStepVillageAllocs(t *testing.T) {
	h := preparedHealth(t)
	h.resetState()
	step := 0
	if n := testing.AllocsPerRun(1000, func() {
		h.stepVillage(h.villages[step%len(h.villages)], step%h.steps)
		step++
	}); n != 0 {
		t.Errorf("stepVillage allocates %.0f times a call, want 0", n)
	}
}

// TestHealthTotalsGolden pins the reference and checks that the totals
// do not depend on the schedule: any worker count, idle workers parked
// or spinning.
func TestHealthTotalsGolden(t *testing.T) {
	h := preparedHealth(t)
	if *h.want != healthGolden {
		t.Fatalf("serial reference = %+v, golden %+v", *h.want, healthGolden)
	}
	for _, workers := range []int{1, 12, 16} {
		for _, spin := range []bool{false, true} {
			t.Run(fmt.Sprintf("workers=%d/spin=%v", workers, spin), func(t *testing.T) {
				cfg := machine.M620()
				cfg.VirtualTimeLimit = 30 * time.Minute
				sys, err := core.New(core.Options{Machine: cfg, Workers: workers, Qthreads: qthreads.Config{SpinOnlyIdle: spin}, Warm: true})
				if err != nil {
					t.Fatal(err)
				}
				defer sys.Close()
				if _, err := sys.RunWorkload(h); err != nil {
					t.Fatal(err)
				}
				if h.got != healthGolden {
					t.Errorf("totals = %+v, golden %+v", h.got, healthGolden)
				}
			})
		}
	}
}

func BenchmarkHealthStepVillage(b *testing.B) {
	h := preparedHealth(b)
	h.resetState()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%(len(h.villages)*h.steps) == 0 {
			// Start the simulation over so populations stay at the size
			// a run sees.
			h.resetState()
		}
		h.stepVillage(h.villages[i%len(h.villages)], i/len(h.villages)%h.steps)
	}
}

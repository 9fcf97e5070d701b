package machine

import (
	"math"
	"testing"
	"time"
)

// boost is E5-2680-like: 3.5 GHz single core to 3.1 GHz all-but-idle on
// a 2.7 GHz base is roughly +15 %.
var boost = TurboParams{Enabled: true, MaxBoost: 1.15, FullBoostCores: 4}

func TestBoostForCurve(t *testing.T) {
	tp := boost
	if got := tp.BoostFor(0, 8); got != 1 {
		t.Errorf("boost with 0 busy = %g, want 1", got)
	}
	for busy := 1; busy <= 4; busy++ {
		if got := tp.BoostFor(busy, 8); got != 1.15 {
			t.Errorf("boost with %d busy = %g, want full 1.15", busy, got)
		}
	}
	if got := tp.BoostFor(8, 8); got != 1 {
		t.Errorf("boost with all busy = %g, want 1", got)
	}
	mid := tp.BoostFor(6, 8)
	if mid <= 1 || mid >= 1.15 {
		t.Errorf("boost with 6 busy = %g, want between 1 and 1.15", mid)
	}
	// Disabled model never boosts.
	off := TurboParams{}
	if got := off.BoostFor(2, 8); got != 1 {
		t.Errorf("disabled boost = %g, want 1", got)
	}
}

func TestTurboDisabledByDefault(t *testing.T) {
	if M620().Turbo.Enabled {
		t.Fatal("M620 preset must have Turbo disabled (the paper's BIOS setting)")
	}
}

func TestTurboSpeedsUpLowOccupancy(t *testing.T) {
	run := func(turbo bool) time.Duration {
		cfg := testConfig()
		if turbo {
			cfg.Turbo = boost
		}
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Stop()
		var elapsed time.Duration
		runOn(t, m, map[int]func(*CoreCtx){
			0: func(c *CoreCtx) {
				start := m.Now()
				c.Compute(2.7e8)
				elapsed = m.Now() - start
			},
		})
		return elapsed
	}
	base := run(false)
	boosted := run(true)
	ratio := base.Seconds() / boosted.Seconds()
	if math.Abs(ratio-1.15) > 0.01 {
		t.Errorf("single-core turbo speedup = %.3f, want 1.15", ratio)
	}
}

func TestTurboFadesAtFullOccupancy(t *testing.T) {
	cfg := testConfig()
	cfg.Turbo = boost
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	// All 8 cores of socket 0 busy: no boost, so 2.7e8 cycles take 100 ms.
	var elapsed time.Duration
	bodies := map[int]func(*CoreCtx){}
	for i := 0; i < 8; i++ {
		i := i
		bodies[i] = func(c *CoreCtx) {
			start := m.Now()
			c.Compute(2.7e8)
			if i == 0 {
				elapsed = m.Now() - start
			}
		}
	}
	runOn(t, m, bodies)
	if math.Abs(elapsed.Seconds()-0.1) > 0.005 {
		t.Errorf("full-occupancy compute took %v, want ~100 ms (no boost)", elapsed)
	}
}

// TestTurboHurryUpAndFinish reproduces the paper's §I framing: boosting
// frequency draws more power but can lower total energy by finishing
// sooner — the "hurry up and finish" rule of §VI.
func TestTurboHurryUpAndFinish(t *testing.T) {
	run := func(turbo bool) (seconds, joules float64) {
		cfg := testConfig()
		if turbo {
			cfg.Turbo = boost
		}
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Stop()
		m.WarmAll(68)
		start := m.Now()
		startE := m.TotalEnergy()
		bodies := map[int]func(*CoreCtx){}
		for i := 0; i < 4; i++ { // 2 busy per socket under scatter-like ids
			bodies[i*4] = func(c *CoreCtx) { c.Compute(2.7e9) }
		}
		runOn(t, m, bodies)
		return (m.Now() - start).Seconds(), float64(m.TotalEnergy() - startE)
	}
	baseSec, baseJ := run(false)
	turboSec, turboJ := run(true)
	if turboSec >= baseSec*0.9 {
		t.Errorf("turbo run %.3f s not clearly faster than %.3f s", turboSec, baseSec)
	}
	// Power is higher while boosted...
	if turboJ/turboSec <= baseJ/baseSec {
		t.Errorf("turbo power %.1f W not above base %.1f W", turboJ/turboSec, baseJ/baseSec)
	}
	// ...but the base-power floor amortizes over less time: total energy
	// must not grow by more than a few percent, and typically shrinks.
	if turboJ > baseJ*1.03 {
		t.Errorf("turbo energy %.1f J far above base %.1f J — 'hurry up and finish' broken", turboJ, baseJ)
	}
}

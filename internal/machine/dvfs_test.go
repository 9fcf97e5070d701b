package machine

import (
	"math"
	"testing"
	"time"
)

func TestFrequencyScaleSlowsCompute(t *testing.T) {
	m := newTestMachine(t)
	var full, scaled time.Duration
	runOn(t, m, map[int]func(*CoreCtx){
		0: func(c *CoreCtx) {
			start := m.Now()
			c.Compute(2.7e8)
			full = m.Now() - start

			if err := m.RequestFrequencyScale(0, 0.5); err != nil {
				t.Error(err)
			}
			start = m.Now()
			c.Compute(2.7e8)
			scaled = m.Now() - start
			if err := m.RequestFrequencyScale(0, 1); err != nil {
				t.Error(err)
			}
		},
	})
	ratio := scaled.Seconds() / full.Seconds()
	if math.Abs(ratio-2) > 0.05 {
		t.Errorf("half-frequency slowdown = %.2fx, want 2x", ratio)
	}
}

func TestFrequencyScaleIsPerSocket(t *testing.T) {
	m := newTestMachine(t)
	if err := m.RequestFrequencyScale(0, 0.5); err != nil {
		t.Fatal(err)
	}
	var s0, s1 time.Duration
	runOn(t, m, map[int]func(*CoreCtx){
		0: func(c *CoreCtx) { // socket 0: scaled
			start := m.Now()
			c.Compute(2.7e8)
			s0 = m.Now() - start
		},
		8: func(c *CoreCtx) { // socket 1: full speed
			start := m.Now()
			c.Compute(2.7e8)
			s1 = m.Now() - start
		},
	})
	if ratio := s0.Seconds() / s1.Seconds(); math.Abs(ratio-2) > 0.1 {
		t.Errorf("socket isolation broken: s0/s1 = %.2f, want 2", ratio)
	}
	if got := m.FrequencyScale(0); got != 0.5 {
		t.Errorf("FrequencyScale(0) = %g", got)
	}
	if got := m.FrequencyScale(1); got != 1 {
		t.Errorf("FrequencyScale(1) = %g", got)
	}
}

func TestFrequencyScaleClamps(t *testing.T) {
	m := newTestMachine(t)
	if err := m.RequestFrequencyScale(0, 0.01); err != nil {
		t.Fatal(err)
	}
	// Force the engine to apply the request.
	runOn(t, m, map[int]func(*CoreCtx){0: func(c *CoreCtx) { c.Compute(1e6) }})
	if got := m.FrequencyScale(0); got != MinFrequencyScale {
		t.Errorf("scale clamped to %g, want %g", got, MinFrequencyScale)
	}
	if err := m.RequestFrequencyScale(0, 5); err != nil {
		t.Fatal(err)
	}
	runOn(t, m, map[int]func(*CoreCtx){0: func(c *CoreCtx) { c.Compute(1e6) }})
	if got := m.FrequencyScale(0); got != 1 {
		t.Errorf("scale clamped to %g, want 1", got)
	}
	if err := m.RequestFrequencyScale(9, 1); err == nil {
		t.Error("bad socket accepted")
	}
}

func TestDVFSPowerFactor(t *testing.T) {
	if got := DVFSPowerFactor(1); math.Abs(got-1) > 1e-12 {
		t.Errorf("factor at full speed = %g, want 1", got)
	}
	// Cubic-ish: at half frequency, power falls well below half.
	if got := DVFSPowerFactor(0.5); got >= 0.5 || got < 0.2 {
		t.Errorf("factor at half speed = %g, want in [0.2, 0.5)", got)
	}
	// Monotone increasing.
	prev := 0.0
	for fs := MinFrequencyScale; fs <= 1.0; fs += 0.05 {
		f := DVFSPowerFactor(fs)
		if f <= prev {
			t.Fatalf("factor not monotone at %g", fs)
		}
		prev = f
	}
}

func TestDVFSSavesPowerButCostsTime(t *testing.T) {
	// The energy trade-off the paper discusses: halving frequency cuts
	// power superlinearly but doubles compute time.
	energyAt := func(scale float64) (joules, seconds float64) {
		m := newTestMachine(t)
		defer m.Stop()
		m.WarmAll(68)
		if err := m.RequestFrequencyScale(0, scale); err != nil {
			t.Fatal(err)
		}
		start := m.Now()
		startE := m.TotalEnergy()
		bodies := map[int]func(*CoreCtx){}
		for i := 0; i < 8; i++ {
			bodies[i] = func(c *CoreCtx) { c.Compute(2.7e8) }
		}
		runOn(t, m, bodies)
		return float64(m.TotalEnergy() - startE), (m.Now() - start).Seconds()
	}
	eFull, tFull := energyAt(1)
	eHalf, tHalf := energyAt(0.5)
	if tHalf < tFull*1.8 {
		t.Errorf("half-speed run only %.2fx slower", tHalf/tFull)
	}
	pFull, pHalf := eFull/tFull, eHalf/tHalf
	if pHalf >= pFull {
		t.Errorf("half-speed power %.1f W >= full-speed %.1f W", pHalf, pFull)
	}
}

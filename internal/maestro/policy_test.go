package maestro

import (
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/qthreads"
	"repro/internal/units"
)

func TestScaleFrequencyMechanismEngages(t *testing.T) {
	m, rt, _ := fullStack(t, 16, Config{Mechanism: ScaleFrequency, FrequencyGear: 0.5})
	if err := hotMemoryLoad(rt, 1200*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// The DVFS mechanism must have pulled the clocks down at some point;
	// since the load just ended the daemon may not have released yet, but
	// the runtime's concurrency throttle must never have been touched.
	stops := uint64(0)
	for _, s := range rt.Stats() {
		stops += s.ThrottleStops
	}
	if stops != 0 {
		t.Errorf("frequency mechanism used the concurrency throttle (%d stops)", stops)
	}
	_ = m
}

func TestScaleFrequencyStopRestoresClock(t *testing.T) {
	m, rt, d := fullStack(t, 16, Config{Mechanism: ScaleFrequency})
	if err := hotMemoryLoad(rt, time.Second); err != nil {
		t.Fatal(err)
	}
	if d.Stats().Activations == 0 {
		t.Skip("mechanism never engaged")
	}
	d.Stop()
	// Force an engine step so pending requests apply.
	if err := rt.Run(func(tc *qthreads.TC) { tc.Compute(1e6) }); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 2; s++ {
		if got := m.FrequencyScale(s); got != 1 {
			t.Errorf("socket %d scale after Stop = %g, want 1", s, got)
		}
	}
}

func TestPowerOnlyPolicyOverThrottles(t *testing.T) {
	// The paper's §IV-A justification for the dual condition: a
	// power-only policy throttles efficient compute-bound programs. A
	// full-node compute burn is High power but Low memory concurrency:
	// dual-condition holds off, power-only engages.
	run := func(policy Policy) uint64 {
		_, rt, d := fullStack(t, 16, Config{Policy: policy})
		cycles := 2.7e9 * 0.8
		err := rt.Run(func(tc *qthreads.TC) {
			g := tc.NewGroup()
			for i := 0; i < 16; i++ {
				g.Spawn(tc, func(tc *qthreads.TC) { tc.Compute(cycles) })
			}
			g.Wait(tc)
		})
		if err != nil {
			t.Fatal(err)
		}
		return d.Stats().Activations
	}
	if got := run(DualCondition); got != 0 {
		t.Errorf("dual-condition activated %d times on compute-only load", got)
	}
	if got := run(PowerOnly); got == 0 {
		t.Error("power-only policy never activated on a high-power compute load")
	}
}

func TestPowerCapHoldsBudget(t *testing.T) {
	mcfg := machine.M620()
	mcfg.VirtualTimeLimit = 10 * time.Minute
	m, err := machine.New(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	m.WarmAll(68)
	bb, rt := stackOn(t, m, 16)

	const cap = units.Watts(120)
	pc, err := StartPowerCap(rt, bb, cap)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pc.Stop)

	// Sustained full-node compute would draw ~150 W uncapped. Run a
	// settle phase for the controller to converge, then measure the
	// steady state.
	burn := func(tasks int) {
		t.Helper()
		err := rt.Run(func(tc *qthreads.TC) {
			g := tc.NewGroup()
			for i := 0; i < tasks; i++ {
				g.Spawn(tc, func(tc *qthreads.TC) { tc.Compute(2e7) })
			}
			g.Wait(tc)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	burn(640) // settle (~300+ ms)
	start := m.Now()
	startE := m.TotalEnergy()
	burn(1280) // measured steady state
	elapsed := m.Now() - start
	avg := float64(m.TotalEnergy()-startE) / elapsed.Seconds()
	st := pc.Stats()
	t.Logf("capped steady state: avg %.1f W under cap %.0f W (tightenings %d, min limit %d, over-budget samples %d/%d)",
		avg, float64(cap), st.Tightenings, st.MinLimit, st.OverBudget, st.Samples)
	if st.Tightenings == 0 {
		t.Error("controller never tightened under a 120 W cap")
	}
	if avg > float64(cap)*1.06 {
		t.Errorf("steady-state power %.1f W overshoots the %.0f W cap", avg, float64(cap))
	}
	if st.MinLimit >= 8 {
		t.Errorf("min limit %d: throttle never actually reduced concurrency", st.MinLimit)
	}
}

func TestPowerCapValidation(t *testing.T) {
	mcfg := machine.M620()
	m, err := machine.New(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	bb, rt := stackOn(t, m, 4)
	if _, err := StartPowerCap(nil, bb, 100); err == nil {
		t.Error("nil runtime accepted")
	}
	if _, err := StartPowerCap(rt, nil, 100); err == nil {
		t.Error("nil blackboard accepted")
	}
	if _, err := StartPowerCap(rt, bb, 0); err == nil {
		t.Error("zero cap accepted")
	}
	pc, err := StartPowerCap(rt, bb, 140)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Stop()
	if pc.Cap() != 140 {
		t.Errorf("Cap() = %v", pc.Cap())
	}
}

func TestPowerCapSetCap(t *testing.T) {
	mcfg := machine.M620()
	mcfg.VirtualTimeLimit = 10 * time.Minute
	m, err := machine.New(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	m.WarmAll(68)
	bb, rt := stackOn(t, m, 16)

	pc, err := StartPowerCap(rt, bb, 200)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pc.Stop)
	if err := pc.SetCap(0); err == nil {
		t.Error("zero cap accepted by SetCap")
	}
	if err := pc.SetCap(-5); err == nil {
		t.Error("negative cap accepted by SetCap")
	}
	if pc.Cap() != 200 {
		t.Errorf("rejected SetCap changed the bound: %v", pc.Cap())
	}

	burn := func(tasks int) {
		t.Helper()
		err := rt.Run(func(tc *qthreads.TC) {
			g := tc.NewGroup()
			for i := 0; i < tasks; i++ {
				g.Spawn(tc, func(tc *qthreads.TC) { tc.Compute(2e7) })
			}
			g.Wait(tc)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// A full-node compute burn draws ~150 W, so the generous initial cap
	// never binds. Retune the bound downward mid-flight: the running
	// controller must pick up the new cap and start tightening.
	burn(640)
	if st := pc.Stats(); st.Tightenings != 0 {
		t.Fatalf("controller tightened under a non-binding 200 W cap (%d)", st.Tightenings)
	}
	if err := pc.SetCap(110); err != nil {
		t.Fatal(err)
	}
	if pc.Cap() != 110 {
		t.Errorf("Cap() after SetCap = %v, want 110", pc.Cap())
	}
	burn(1280)
	st := pc.Stats()
	if st.Tightenings == 0 {
		t.Error("controller never tightened after SetCap lowered the bound to 110 W")
	}
	if st.MinLimit >= 8 {
		t.Errorf("min limit %d: retuned cap never reduced concurrency", st.MinLimit)
	}
}

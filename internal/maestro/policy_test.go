package maestro

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/qthreads"
	"repro/internal/replaytest"
	"repro/internal/units"
)

func TestScaleFrequencyMechanismEngages(t *testing.T) {
	m, rt, _ := fullStack(t, 16, Config{Policy: ScaleFrequency, FrequencyGear: 0.5})
	if err := hotMemoryLoad(rt, 1200*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// The DVFS mechanism must have pulled the clocks down at some point;
	// since the load just ended the daemon may not have released yet, but
	// the runtime's concurrency throttle must never have been touched.
	if stops := throttleStops(rt); stops != 0 {
		t.Errorf("frequency mechanism used the concurrency throttle (%d stops)", stops)
	}
	_ = m
}

func TestScaleFrequencyStopRestoresClock(t *testing.T) {
	m, rt, d := fullStack(t, 16, Config{Policy: ScaleFrequency})
	if err := hotMemoryLoad(rt, time.Second); err != nil {
		t.Fatal(err)
	}
	if d.Stats().Activations == 0 {
		t.Skip("mechanism never engaged")
	}
	d.Stop()
	// Force an engine step so pending requests apply, and read the scale
	// it applied.
	var mu sync.Mutex
	var last machine.StepRecord
	m.SetStepHook(func(r machine.StepRecord) {
		mu.Lock()
		last = r
		mu.Unlock()
	})
	if err := run(rt, func(tc *qthreads.TC) { tc.Compute(1e6) }); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for s, sock := range last.Sockets {
		if sock.FreqScale != 1 {
			t.Errorf("socket %d scale after Stop = %g, want 1", s, sock.FreqScale)
		}
	}
	if len(last.Sockets) != 2 {
		t.Errorf("no step after Stop: %+v", last)
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
		err := run(rt, func(tc *qthreads.TC) {
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

// nodeEnergy is the exact cumulative energy of every socket.
func nodeEnergy(m *machine.Machine) units.Joules {
	var e units.Joules
	for s := 0; s < m.Config().Sockets; s++ {
		e += m.SocketEnergy(s)
	}
	return e
}

// capSteadyState is what TestPowerCapHoldsBudget measures.
type capSteadyState struct {
	elapsed time.Duration
	joules  units.Joules
	stats   Stats
}

// measureCapSteadyState runs full-node compute, which would draw ~150 W
// uncapped, under a power cap: a settle burn for the controller to
// converge, then the measured steady state, back to back on the parked
// clock. The measurement is therefore a pure function of the model.
func measureCapSteadyState(t *testing.T, cap units.Watts) capSteadyState {
	t.Helper()
	mcfg := machine.M620()
	mcfg.VirtualTimeLimit = 10 * time.Minute
	m, err := machine.New(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	m.WarmAll(68)
	bb, rt := stackOn(t, m, 16)
	d, err := Start(rt, bb, Config{Policy: PowerCapped, Cap: cap})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)
	burn := func(tasks int) {
		t.Helper()
		err := run(rt, func(tc *qthreads.TC) {
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
	start, startE := m.Now(), nodeEnergy(m)
	burn(1280) // measured steady state
	return capSteadyState{m.Now() - start, nodeEnergy(m) - startE, d.Stats()}
}

func TestPowerCapHoldsBudget(t *testing.T) {
	const cap = units.Watts(120)
	ss := measureCapSteadyState(t, cap)
	avg := float64(ss.joules) / ss.elapsed.Seconds()
	st := ss.stats
	t.Logf("capped steady state: %v, %.6f J, avg %.4f W under cap %.0f W (tightenings %d, min limit %d, over-budget samples %d/%d)",
		ss.elapsed, float64(ss.joules), avg, float64(cap), st.Tightenings, st.MinLimit, st.OverBudget, st.Samples)
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

// TestPowerCapReplay measures TestPowerCapHoldsBudget's steady state
// under every replaytest.Hosts setting: elapsed time, joules and the
// daemon's counters must agree to the bit.
func TestPowerCapReplay(t *testing.T) {
	var first capSteadyState
	for i, h := range replaytest.Hosts {
		restore := h.Set()
		ss := measureCapSteadyState(t, 120)
		restore()
		if i == 0 {
			first = ss
			continue
		}
		if ss.elapsed != first.elapsed || math.Float64bits(float64(ss.joules)) != math.Float64bits(float64(first.joules)) || ss.stats != first.stats {
			t.Errorf("%s: %v, %v J, %+v; %s: %v, %v J, %+v",
				h.Name, ss.elapsed, float64(ss.joules), ss.stats, replaytest.Hosts[0].Name, first.elapsed, float64(first.joules), first.stats)
		}
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
	capped := func(cap units.Watts) Config { return Config{Policy: PowerCapped, Cap: cap} }
	if _, err := Start(nil, bb, capped(100)); err == nil {
		t.Error("nil runtime accepted")
	}
	if _, err := Start(rt, nil, capped(100)); err == nil {
		t.Error("nil blackboard accepted")
	}
	if _, err := Start(rt, bb, capped(0)); err == nil {
		t.Error("zero cap accepted")
	}
	dual, err := Start(rt, bb, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := dual.SetCap(100); err == nil {
		t.Error("SetCap accepted under the dual-condition policy")
	}
	dual.Stop()
	d, err := Start(rt, bb, capped(140))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	if d.Cap() != 140 {
		t.Errorf("Cap() = %v", d.Cap())
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

	pc, err := Start(rt, bb, Config{Policy: PowerCapped, Cap: 200})
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
		err := run(rt, func(tc *qthreads.TC) {
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

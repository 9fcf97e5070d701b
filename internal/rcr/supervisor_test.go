package rcr

import (
	"sync"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/rapl"
	"repro/internal/resilience/leak"
	"repro/internal/telemetry"
)

// TestSupervisorRestartsCrashedSampler injects a sampler crash window
// that spans several restart attempts: the supervisor must keep
// replacing the sampler (fault gates persist onto every incarnation, so
// a still-open crash window kills the replacement too) and end with a
// live sampler and a fresh heartbeat once the window closes.
func TestSupervisorRestartsCrashedSampler(t *testing.T) {
	leak.Check(t)
	cfg := machine.M620()
	cfg.VirtualTimeLimit = 5 * time.Minute
	m := newParkedMachine(t, cfg)
	reader, err := rapl.NewMSRReader(m.MSR())
	if err != nil {
		t.Fatal(err)
	}
	bb, err := NewBlackboard(cfg.Sockets, cfg.CoresPerSocket)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	sup, err := StartSupervisor(m, reader, bb, SupervisorConfig{
		SamplePeriod: 5 * time.Millisecond,
		CheckPeriod:  10 * time.Millisecond,
		StaleAfter:   20 * time.Millisecond,
		Telemetry:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()
	first := sup.Sampler()

	// Crash window [30 ms, 75 ms): long enough that at least one
	// restarted incarnation dies inside it again.
	sup.SetFaultGates(func(now time.Duration) TickAction {
		if now >= 30*time.Millisecond && now < 75*time.Millisecond {
			return TickDie
		}
		return TickRun
	}, nil)

	burn(t, m, []int{0, 1}, 300*time.Millisecond)

	if sup.Restarts() < 2 {
		t.Errorf("Restarts() = %d, want >= 2 (crash window spans restarts)", sup.Restarts())
	}
	cur := sup.Sampler()
	if cur == first {
		t.Error("supervisor never replaced the crashed sampler")
	}
	if !cur.Alive() {
		t.Error("final sampler incarnation is dead")
	}
	hb, ok := bb.System(MeterHeartbeat)
	if !ok {
		t.Fatal("no heartbeat on the blackboard")
	}
	if age := m.Now() - hb.Updated; age > 20*time.Millisecond {
		t.Errorf("heartbeat is %v old at shutdown, want fresh", age)
	}
	if v := reg.Counter("rcr_supervisor_restarts_total").Value(); v != sup.Restarts() {
		t.Errorf("restart counter %v != Restarts() %d", v, sup.Restarts())
	}
	if v := reg.Counter("rcr_sampler_deaths_total").Value(); v < 2 {
		t.Errorf("deaths counter = %v, want >= 2", v)
	}
	if v := reg.Counter("rcr_supervisor_checks_total").Value(); v == 0 {
		t.Error("supervisor never ran a check")
	}
}

// TestSupervisorResyncsBaselineAcrossOutage: the energy burned during a
// sampler outage must not be booked into the restarted sampler's first
// power window. A 1 ms watcher ticker records every published power
// figure; all of them must stay at node scale rather than showing the
// outage-sized spike a naive restart would publish.
func TestSupervisorResyncsBaselineAcrossOutage(t *testing.T) {
	leak.Check(t)
	cfg := machine.M620()
	cfg.VirtualTimeLimit = 5 * time.Minute
	m := newParkedMachine(t, cfg)
	reader, err := rapl.NewMSRReader(m.MSR())
	if err != nil {
		t.Fatal(err)
	}
	bb, err := NewBlackboard(cfg.Sockets, cfg.CoresPerSocket)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := StartSupervisor(m, reader, bb, SupervisorConfig{
		SamplePeriod: 5 * time.Millisecond,
		CheckPeriod:  10 * time.Millisecond,
		StaleAfter:   20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()

	// One fatal crash at 30 ms; the supervisor restarts ~50-60 ms, so
	// roughly 25 ms of full-load energy accumulates unobserved.
	sup.SetFaultGates(func(now time.Duration) TickAction {
		if now >= 30*time.Millisecond && now < 35*time.Millisecond {
			return TickDie
		}
		return TickRun
	}, nil)

	// Physical ceiling of the node: every core active plus uncore and
	// peak bandwidth power, with headroom for boost and leakage. Any
	// published power above this is accounting error, not physics.
	p := cfg.Power
	maxNode := 3 * float64(cfg.Sockets) * (float64(p.UncoreBase) + float64(p.BandwidthMax) +
		float64(cfg.CoresPerSocket)*float64(p.CoreActive))
	var mu sync.Mutex
	maxSeen := 0.0
	if _, err := m.AddTicker(time.Millisecond, func(now time.Duration, _ *machine.Snapshot) {
		if row, ok := bb.System(MeterPower); ok {
			mu.Lock()
			if row.Value > maxSeen {
				maxSeen = row.Value
			}
			mu.Unlock()
		}
	}); err != nil {
		t.Fatal(err)
	}

	burn(t, m, []int{0, 1, 2, 3}, 200*time.Millisecond)

	if sup.Restarts() == 0 {
		t.Fatal("sampler was never restarted; the outage never happened")
	}
	mu.Lock()
	defer mu.Unlock()
	if maxSeen == 0 {
		t.Fatal("no power was ever published")
	}
	if maxSeen > maxNode {
		t.Errorf("published power peaked at %.1f W, above the %.1f W physical ceiling: outage energy booked into a window", maxSeen, maxNode)
	}
}

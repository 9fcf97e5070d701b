package core

import (
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/maestro"
	"repro/internal/qthreads"
	"repro/internal/rcr"
	"repro/internal/replaytest"
	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/internal/workloads"
	"repro/internal/workloads/micro"
)

// nodePower is the node power the sampler last published, summed over
// the sockets as maestro reads it.
func nodePower(sys *System) float64 {
	total := 0.0
	for d := 0; d < sys.Blackboard().Sockets(); d++ {
		if m, ok := sys.Blackboard().Socket(d, rcr.MeterPower); ok {
			total += m.Value
		}
	}
	return total
}

// nodeEnergy is the exact cumulative energy of every socket.
func nodeEnergy(sys *System) units.Joules {
	var e units.Joules
	for s := 0; s < sys.Machine().Config().Sockets; s++ {
		e += sys.Machine().SocketEnergy(s)
	}
	return e
}

// tally counts a recorder's scheduler events by kind.
func tally(rec *qthreads.Recorder) map[qthreads.EventKind]int {
	out := make(map[qthreads.EventKind]int)
	for _, e := range rec.Events() {
		out[e.Kind]++
	}
	return out
}

func newSystem(t *testing.T, opts Options) *System {
	t.Helper()
	if opts.Machine.Sockets == 0 {
		opts.Machine = machine.M620()
		opts.Machine.VirtualTimeLimit = 30 * time.Minute
	}
	sys, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	return sys
}

func TestRunMeasuredRegion(t *testing.T) {
	sys := newSystem(t, Options{Warm: true})
	rep, err := sys.Run("kernel", func(tc *qthreads.TC) {
		tc.ParallelFor(1600, 100, func(tc *qthreads.TC, lo, hi int) {
			tc.Compute(float64(hi-lo) * 1e6) // 100 ms of work node-wide
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Name != "kernel" {
		t.Errorf("report name = %q", rep.Name)
	}
	// 1.6e9 cycles over 16 workers at 2.7 GHz ≈ 37 ms.
	if rep.Elapsed < 30*time.Millisecond || rep.Elapsed > 60*time.Millisecond {
		t.Errorf("elapsed = %v, want ~37 ms", rep.Elapsed)
	}
	if rep.Energy <= 0 {
		t.Error("no energy recorded")
	}
	if !strings.Contains(rep.String(), "kernel") {
		t.Errorf("report string %q missing region name", rep.String())
	}
}

func TestRunWorkload(t *testing.T) {
	sys := newSystem(t, Options{Warm: true})
	wl := micro.NewDijkstra()
	if err := wl.Prepare(workloads.Params{Scale: 0.3}); err != nil {
		t.Fatal(err)
	}
	rep, err := sys.RunWorkload(wl)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Elapsed <= 0 || rep.Energy <= 0 {
		t.Errorf("empty report: %+v", rep)
	}
}

func TestWorkersOption(t *testing.T) {
	sys := newSystem(t, Options{Workers: 4})
	if got := sys.Runtime().Workers(); got != 4 {
		t.Errorf("Workers = %d, want 4", got)
	}
}

func TestThrottlingOption(t *testing.T) {
	sys := newSystem(t, Options{Warm: true, AdaptiveThrottling: true})
	if _, ok := sys.Throttling(); !ok {
		t.Fatal("throttling not installed")
	}
	// Run something; the daemon must at least be sampling.
	if _, err := sys.Run("warm", func(tc *qthreads.TC) { tc.Compute(2.7e9) }); err != nil {
		t.Fatal(err)
	}
	stats, _ := sys.Throttling()
	if stats.Samples == 0 {
		t.Error("daemon took no samples during a 1 s run")
	}
	// No throttling expected on a compute-only kernel.
	if stats.Activations != 0 {
		t.Errorf("daemon activated %d times on compute-only work", stats.Activations)
	}
}

func TestThrottlingAbsent(t *testing.T) {
	sys := newSystem(t, Options{})
	if _, ok := sys.Throttling(); ok {
		t.Error("Throttling reports installed without the option")
	}
}

func TestPowerMeter(t *testing.T) {
	sys := newSystem(t, Options{Warm: true})
	var midRun float64
	if _, err := sys.Run("burn", func(tc *qthreads.TC) {
		g := tc.NewGroup()
		for i := 0; i < 16; i++ {
			g.Spawn(tc, func(tc *qthreads.TC) { tc.Compute(2.7e8) })
		}
		// Let the burners establish steady state, then read the meter
		// from inside the region (the root's charge keeps time moving).
		tc.Compute(1.35e8) // 50 ms
		midRun = nodePower(sys)
		g.Wait(tc)
	}); err != nil {
		t.Fatal(err)
	}
	// Mid-run: 15-16 active cores plus the sampling lag — near the
	// compute-bound figure.
	want := float64(sys.Machine().Config().Power.PredictSocketPower(8, 1, 0, 0, 0, 0, 0)) * 2
	if math.Abs(midRun-want)/want > 0.15 {
		t.Errorf("mid-run power meters = %.1f W, want ~%.1f W", midRun, want)
	}
	// The clock is parked at the run's completion; a few sample periods
	// of idle clock later the workers are parked and the meter reflects
	// it.
	if err := sys.Idle(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	idle := nodePower(sys)
	if idle >= midRun {
		t.Errorf("post-run power meters = %.1f W, want below mid-run %.1f W", idle, midRun)
	}
}

func TestRunAfterClose(t *testing.T) {
	sys := newSystem(t, Options{})
	sys.Close()
	if _, err := sys.Run("x", func(tc *qthreads.TC) {}); err == nil {
		t.Error("Run succeeded on a closed system")
	}
	sys.Close() // idempotent
}

func TestCustomMachineConfig(t *testing.T) {
	cfg := machine.M620()
	cfg.Sockets = 1
	cfg.CoresPerSocket = 4
	sys := newSystem(t, Options{Machine: cfg})
	if sys.Runtime().Workers() != 4 {
		t.Errorf("Workers = %d, want 4 (all cores of custom machine)", sys.Runtime().Workers())
	}
	if sys.Blackboard().Sockets() != 1 {
		t.Errorf("blackboard sockets = %d", sys.Blackboard().Sockets())
	}
}

func TestWarmOption(t *testing.T) {
	// The sampler publishes each socket's temperature from its first
	// tick, 10 ms into an idle clock.
	temperature := func(sys *System) units.Celsius {
		t.Helper()
		if err := sys.Idle(10 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		m, ok := sys.Blackboard().Socket(0, rcr.MeterTemperature)
		if !ok {
			t.Fatal("no temperature meter after the first sample")
		}
		return units.Celsius(m.Value)
	}
	if got := temperature(newSystem(t, Options{Warm: true})); math.Abs(float64(got-workloads.WarmTemp)) > 1 {
		t.Errorf("temperature = %v, want warm (%v)", got, workloads.WarmTemp)
	}
	if got := temperature(newSystem(t, Options{})); got >= workloads.WarmTemp {
		t.Errorf("unwarmed machine already at %v", got)
	}
}

// capped is a node that holds its power at or below cap.
func capped(cap units.Watts) Options {
	return Options{
		Warm:               true,
		AdaptiveThrottling: true,
		Maestro:            maestro.Config{Policy: maestro.PowerCapped, Cap: cap},
	}
}

// burn runs tasks full-node compute tasks of 2e7 cycles each: ~150 W
// uncapped.
func burn(t *testing.T, sys *System, tasks int) {
	t.Helper()
	if _, err := sys.Run("burn", func(tc *qthreads.TC) {
		g := tc.NewGroup()
		for i := 0; i < tasks; i++ {
			g.Spawn(tc, func(tc *qthreads.TC) { tc.Compute(2e7) })
		}
		g.Wait(tc)
	}); err != nil {
		t.Fatal(err)
	}
}

func TestPowerCapOption(t *testing.T) {
	sys := newSystem(t, capped(110))
	if _, ok := sys.Throttling(); !ok {
		t.Fatal("power cap not installed")
	}
	// A sustained full-node burn must be held near the cap. The
	// daemon adjusts once per 100 ms: give it a settle phase, then
	// measure the steady state.
	burn(t, sys, 2400) // settle: > 1 s even at full speed
	start := sys.Machine().Now()
	startE := nodeEnergy(sys)
	burn(t, sys, 2400)
	elapsed := sys.Machine().Now() - start
	avg := float64(nodeEnergy(sys)-startE) / elapsed.Seconds()
	stats, _ := sys.Throttling()
	if stats.Tightenings == 0 {
		t.Error("power cap never tightened")
	}
	if avg > 110*1.08 {
		t.Errorf("steady-state power %.1f W above the 110 W cap", avg)
	}
}

// TestPowerCapFailsafeOnStalledSampler: the staleness watchdog covers
// the cap as it covers every policy. A capped node over budget is
// throttled; when its sampler stalls, the throttle is released within
// the horizon and failsafe_entered is journaled, however over budget
// the last readings were. Once samples flow again, the cap restarts
// from full concurrency and tightens on the poll that recovers, two
// fresh polls after the stall ends.
func TestPowerCapFailsafeOnStalledSampler(t *testing.T) {
	opts := capped(110)
	opts.Telemetry = true
	sys := newSystem(t, opts)
	throttled := func() bool { return sys.Telemetry().Gauge("qthreads_throttled").Value() == 1 }
	burn(t, sys, 2400)
	if st, _ := sys.Throttling(); !throttled() || st.Tightenings == 0 {
		t.Fatalf("a 110 W cap left a full-node burn unthrottled: %+v", st)
	}
	d := sys.Daemon()
	period := maestro.DefaultPeriod

	stalled := sys.Machine().Now()
	sys.Sampler().SetFaultGates(func(time.Duration) rcr.TickAction { return rcr.TickSkip }, nil)
	if err := sys.Idle(d.Horizon() + period); err != nil {
		t.Fatal(err)
	}
	if throttled() {
		t.Errorf("throttle still on %v after the sampler stalled", sys.Machine().Now()-stalled)
	}
	var entered []time.Duration
	for _, e := range sys.Journal().Entries() {
		if e.Kind == telemetry.KindFailsafeEntered {
			entered = append(entered, e.T)
		}
	}
	if len(entered) != 1 || entered[0] <= stalled || entered[0] > stalled+d.Horizon()+period {
		t.Errorf("failsafe_entered at %v, want once within %v of the stall at %v", entered, d.Horizon()+period, stalled)
	}

	resumed := sys.Machine().Now()
	sys.Sampler().SetFaultGates(nil, nil)
	burn(t, sys, 2400)
	st, _ := sys.Throttling()
	if st.FailsafeEntries != 1 || st.Recoveries != 1 || st.Failsafe {
		t.Fatalf("stats %+v: want one fail-safe window, recovered", st)
	}
	full := sys.Machine().Config().CoresPerSocket
	var recovered time.Duration
	tightened := false
	for _, e := range sys.Journal().Entries() {
		switch {
		case e.Kind == telemetry.KindRecovered:
			recovered = e.T
		case recovered > 0 && e.Kind == telemetry.KindDecision && e.T == recovered:
			tightened = e.Engaged && e.Limit == full-1
		}
	}
	if recovered <= resumed || recovered > resumed+2*period {
		t.Errorf("recovered at %v, want within two polls of the sampler resuming at %v", recovered, resumed)
	}
	if !tightened {
		t.Errorf("the recovering poll did not tighten from %d workers per socket", full)
	}
	if !throttled() {
		t.Error("the cap never re-engaged after recovery")
	}
}

func TestHistoryOption(t *testing.T) {
	sys := newSystem(t, Options{Warm: true, RecordHistory: true})
	if sys.History() == nil {
		t.Fatal("history not installed")
	}
	if _, err := sys.Run("burn", func(tc *qthreads.TC) { tc.Compute(2.7e8) }); err != nil {
		t.Fatal(err)
	}
	if sys.History().Len() < 5 {
		t.Errorf("history recorded only %d points over a 100 ms run", sys.History().Len())
	}
	cold := newSystem(t, Options{})
	if cold.History() != nil {
		t.Error("history present without the option")
	}
}

func TestTelemetryOption(t *testing.T) {
	sys := newSystem(t, Options{Warm: true, AdaptiveThrottling: true, Telemetry: true})
	if sys.Telemetry() == nil || sys.Journal() == nil {
		t.Fatal("Telemetry option did not install registry/journal")
	}
	// ~370 ms of virtual work, several MAESTRO poll periods.
	_, err := sys.Run("kernel", func(tc *qthreads.TC) {
		tc.ParallelFor(1600, 100, func(tc *qthreads.TC, lo, hi int) {
			tc.Compute(float64(hi-lo) * 1e7)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := sys.Telemetry().Snapshot()
	if len(snap) < 10 {
		t.Errorf("stack publishes %d metrics, want >= 10", len(snap))
	}
	want := map[string]bool{
		"rcr_sampler_ticks_total":     false,
		"rcr_blackboard_writes_total": false,
		"qthreads_tasks_total":        false,
		"maestro_polls_total":         false,
	}
	for _, m := range snap {
		if _, ok := want[m.Name]; ok && m.Value > 0 {
			want[m.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("metric %s absent or zero after a run", name)
		}
	}
	if sys.Journal().Len() == 0 {
		t.Error("daemon recorded no decisions in the journal")
	}
}

func TestTelemetryOffByDefault(t *testing.T) {
	sys := newSystem(t, Options{})
	if sys.Telemetry() != nil || sys.Journal() != nil {
		t.Error("telemetry installed without Options.Telemetry")
	}
}

// TestSystemMeasuresThroughGuard: every System measures through a RAPL
// guard, instrumented into the shared registry, and its self-restarting
// sampler leaves a healthy run alone.
func TestSystemMeasuresThroughGuard(t *testing.T) {
	sys := newSystem(t, Options{Telemetry: true})
	rep, err := sys.Run("kernel", func(tc *qthreads.TC) {
		tc.ParallelFor(320, 20, func(tc *qthreads.TC, lo, hi int) {
			tc.Compute(float64(hi-lo) * 1e6)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Energy <= 0 {
		t.Error("no energy measured through the guarded reader")
	}
	if got := sys.Guard().Quarantined(); got != 0 {
		t.Errorf("%d domains quarantined on a healthy run", got)
	}
	if sys.sampler.Restarts() != 0 {
		t.Error("the sampler's watchdog restarted a healthy sampler")
	}
	// The guard's instruments are in the shared registry.
	found := false
	for _, m := range sys.Telemetry().Snapshot() {
		if m.Name == "rapl_guard_faults_total" {
			found = true
		}
	}
	if !found {
		t.Error("guard counters not registered")
	}
}

// TestQthreadsOptionsSurviveDefaultCosts: the runtime options the caller
// sets, a tracer here, reach the runtime.
func TestQthreadsOptionsSurviveDefaultCosts(t *testing.T) {
	rec := qthreads.NewRecorder(0)
	sys := newSystem(t, Options{Workers: 4, Qthreads: qthreads.Config{Tracer: rec}})
	if _, err := sys.Run("tasks", func(tc *qthreads.TC) {
		tc.ParallelFor(64, 4, func(tc *qthreads.TC, lo, hi int) { tc.Compute(1e5) })
	}); err != nil {
		t.Fatal(err)
	}
	if tally(rec)[qthreads.EvTaskStart] == 0 {
		t.Error("the tracer recorded no task: Options.Qthreads.Tracer was dropped")
	}
}

// TestClockContract: New parks the clock at zero, a run starts where the
// clock is parked and returns it parked at the run's completion, host
// work between runs costs no virtual time, and Idle moves the clock by
// exactly what it is asked while the tickers keep firing.
func TestClockContract(t *testing.T) {
	sys := newSystem(t, Options{Warm: true, RecordHistory: true})
	m := sys.Machine()
	if now := m.Now(); now != 0 {
		t.Fatalf("clock at %v after New, want parked at 0", now)
	}
	burn := func(tc *qthreads.TC) { tc.Compute(2.7e7) } // 10 ms on one core
	var at time.Duration
	for i := 0; i < 2; i++ {
		rep, err := sys.Run("burn", burn)
		if err != nil {
			t.Fatal(err)
		}
		if now := m.Now(); now != at+rep.Elapsed {
			t.Fatalf("run %d: clock at %v, want parked at its completion %v", i, now, at+rep.Elapsed)
		}
		if err := sys.History().WriteCSV(io.Discard); err != nil {
			t.Fatal(err)
		}
		at = m.Now()
	}
	samples := sys.History().Len()
	if err := sys.Idle(30 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if now := m.Now(); now != at+30*time.Millisecond {
		t.Errorf("Idle(30ms) from %v parked the clock at %v", at, now)
	}
	if got := sys.History().Len() - samples; got != 3 {
		t.Errorf("%d history samples over 30 ms of idle at 10 ms, want 3", got)
	}
	if err := sys.Idle(time.Hour); err == nil {
		t.Error("Idle past the machine's 30 min watchdog succeeded")
	}
	// Idle(0) leaves the clock running; the next run parks it again.
	if err := sys.Idle(0); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run("burn", burn); err != nil {
		t.Fatal(err)
	}
}

// TestSystemReplay is the replay gate of the library path — core.New and
// RunWorkload, which cmd/energymeter, cmd/rcrd and the examples use: two
// workloads chained on one System under the MAESTRO daemon must agree to
// the bit on both region reports and on every byte of the history CSV
// under every replaytest.Hosts setting.
func TestSystemReplay(t *testing.T) {
	type replay struct {
		reports []rcr.RegionReport
		history string
	}
	run := func() (r replay, err error) {
		sys, err := New(Options{
			Qthreads:           qthreads.Config{SpinOnlyIdle: true},
			AdaptiveThrottling: true,
			RecordHistory:      true,
			Warm:               true,
		})
		if err != nil {
			return r, err
		}
		defer sys.Close()
		for _, wl := range []workloads.Workload{micro.NewDijkstra(), micro.NewReduction()} {
			if err := wl.Prepare(workloads.Params{Scale: 0.2}); err != nil {
				return r, err
			}
			rep, err := sys.RunWorkload(wl)
			if err != nil {
				return r, err
			}
			r.reports = append(r.reports, rep)
		}
		var csv strings.Builder
		err = sys.History().WriteCSV(&csv)
		r.history = csv.String()
		return r, err
	}
	var first replay
	for i, h := range replaytest.Hosts {
		restore := h.Set()
		got, err := run()
		restore()
		if err != nil {
			t.Fatalf("%s: %v", h.Name, err)
		}
		if i == 0 {
			first = got
		} else if !reflect.DeepEqual(got, first) {
			t.Errorf("run %q differs from the first:\n%+v\n%d history bytes\nfirst:\n%+v\n%d history bytes",
				h.Name, got.reports, len(got.history), first.reports, len(first.history))
		}
	}
}

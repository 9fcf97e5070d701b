package maestro

import (
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/qthreads"
	"repro/internal/rapl"
	"repro/internal/rcr"
	"repro/internal/resilience/leak"
	"repro/internal/telemetry"
	"repro/internal/units"
)

func TestClassify(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name      string
		v         float64
		low, high float64
		want      Level
	}{
		{"well below", 10, 25, 75, Low},
		{"at low boundary", 25, 25, 75, Low},
		{"just above low", 26, 25, 75, Medium},
		{"mid band", 50, 25, 75, Medium},
		{"just below high", 74, 25, 75, Medium},
		{"at high boundary", 75, 25, 75, High},
		{"well above", 100, 25, 75, High},
		// Degenerate low == high: the boundary value belongs to Low —
		// ties fail toward releasing the throttle, not holding it.
		{"degenerate at bound", 50, 50, 50, Low},
		{"degenerate below", 49, 50, 50, Low},
		{"degenerate above", 51, 50, 50, High},
		// Inverted thresholds (low > high) slip past a missing Validate
		// call; the overlap region must fail toward Low, never High.
		{"inverted mid", 50, 75, 25, Low},
		{"inverted low side", 10, 75, 25, Low},
		{"inverted high side", 80, 75, 25, High},
		// NaN compares false with everything: it must land in the inert
		// Medium band and never classify High (which could engage the
		// throttle off a poisoned sample).
		{"NaN value", nan, 25, 75, Medium},
		{"NaN value degenerate", nan, 50, 50, Medium},
		{"NaN low bound", 50, nan, 75, Medium},
		{"NaN high bound", 50, 25, nan, Medium},
		{"NaN both bounds", 50, nan, nan, Medium},
	}
	for _, c := range cases {
		if got := Classify(c.v, c.low, c.high); got != c.want {
			t.Errorf("%s: Classify(%g, %g, %g) = %v, want %v", c.name, c.v, c.low, c.high, got, c.want)
		}
	}
}

func TestDefaultThresholds(t *testing.T) {
	th := DefaultThresholds(machine.M620().Mem)
	if th.HighPower != 65 || th.LowPower != 45 {
		t.Errorf("power thresholds = %v/%v, want 65/45 (paper's 75/50 rescaled to our power model)", th.HighPower, th.LowPower)
	}
	knee := float64(machine.M620().Mem.KneeRefs)
	if th.HighConcurrency != 0.75*knee || th.LowConcurrency != 0.25*knee {
		t.Errorf("concurrency thresholds = %g/%g, want 75%%/25%% of knee", th.HighConcurrency, th.LowConcurrency)
	}
	if err := th.Validate(); err != nil {
		t.Errorf("default thresholds invalid: %v", err)
	}
}

func TestThresholdsValidate(t *testing.T) {
	nan := math.NaN()
	bad := []Thresholds{
		{HighPower: 50, LowPower: 75, HighConcurrency: 10, LowConcurrency: 1},
		{HighPower: 75, LowPower: 0, HighConcurrency: 10, LowConcurrency: 1},
		{HighPower: 75, LowPower: 50, HighConcurrency: 1, LowConcurrency: 10},
		{HighPower: 75, LowPower: 50, HighConcurrency: 5, LowConcurrency: -1},
		// NaN bounds would make every Classify comparison false and
		// silently disable the daemon; Validate must refuse them.
		{HighPower: units.Watts(nan), LowPower: 50, HighConcurrency: 10, LowConcurrency: 1},
		{HighPower: 75, LowPower: units.Watts(nan), HighConcurrency: 10, LowConcurrency: 1},
		{HighPower: 75, LowPower: 50, HighConcurrency: nan, LowConcurrency: 1},
		{HighPower: 75, LowPower: 50, HighConcurrency: 10, LowConcurrency: nan},
	}
	for i, th := range bad {
		if err := th.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, th)
		}
	}
}

func TestDecideDualCondition(t *testing.T) {
	th := Thresholds{HighPower: 75, LowPower: 50, HighConcurrency: 21, LowConcurrency: 7}
	const L, M, H = int8(Low), int8(Medium), int8(High)
	cases := []struct {
		name            string
		power, conc     []float64
		want            Decision
		powerLv, concLv []int8
	}{
		{"both high one socket", []float64{80, 30}, []float64{25, 1}, Enable, []int8{H, L}, []int8{H, L}},
		{"both high other socket", []float64{30, 80}, []float64{1, 25}, Enable, []int8{L, H}, []int8{L, H}},
		{"power high only", []float64{80, 80}, []float64{10, 10}, Hold, []int8{H, H}, []int8{M, M}},
		{"conc high only", []float64{60, 60}, []float64{25, 25}, Hold, []int8{M, M}, []int8{H, H}},
		{"high power low conc", []float64{80, 80}, []float64{1, 1}, Hold, []int8{H, H}, []int8{L, L}},
		{"all low", []float64{30, 40}, []float64{2, 3}, Disable, []int8{L, L}, []int8{L, L}},
		{"medium band holds", []float64{60, 40}, []float64{3, 3}, Hold, []int8{M, L}, []int8{L, L}},
		{"one low one medium", []float64{30, 60}, []float64{2, 2}, Hold, []int8{L, M}, []int8{L, L}},
		{"empty", nil, nil, Hold, nil, nil},
		{"mismatched", []float64{80}, []float64{25, 25}, Hold, nil, nil},
	}
	for _, c := range cases {
		got, pl, cl := th.decide(c.power, c.conc, nil, nil)
		if got != c.want || !slices.Equal(pl, c.powerLv) || !slices.Equal(cl, c.concLv) {
			t.Errorf("%s: decide = %v %v %v, want %v %v %v", c.name, got, pl, cl, c.want, c.powerLv, c.concLv)
		}
	}
}

// rig is what a test stack keeps beside its runtime: the release of the
// machine's parked clock, handed from one run to the next, and the
// registry the runtime publishes its qthreads_* metrics into.
type rig struct {
	clock chan func()
	reg   *telemetry.Registry
}

var rigs sync.Map // *qthreads.Runtime → rig

// startRuntime starts a runtime of the given width on m, whose clock the
// caller parked, as core.New does, before anything that ticks was added;
// release lets it go. The clock then moves only inside run and idle.
func startRuntime(t *testing.T, m *machine.Machine, workers int, release func()) *qthreads.Runtime {
	t.Helper()
	reg := telemetry.NewRegistry()
	rt, err := qthreads.New(m, qthreads.Config{Workers: workers, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	clock := make(chan func(), 1)
	clock <- release
	rigs.Store(rt, rig{clock, reg})
	return rt
}

func rigOf(rt *qthreads.Runtime) rig {
	r, _ := rigs.Load(rt)
	return r.(rig)
}

// run runs fn as a root task of a runtime from startRuntime. It starts
// at the instant the clock is parked on and returns with the clock
// parked at its completion, so runs chain back to back and a test reads
// time, energy and the daemon's state as the model left them.
func run(rt *qthreads.Runtime, fn qthreads.Task) error {
	clock := rigOf(rt).clock
	end, err := rt.RunHeld(fn, <-clock)
	clock <- end
	return err
}

// idle lets the parked clock of a runtime from startRuntime run for d
// with nothing scheduled, and parks it there again.
func idle(t *testing.T, rt *qthreads.Runtime, d time.Duration) {
	t.Helper()
	clock := rigOf(rt).clock
	clock <- idleFor(t, rt.Machine(), <-clock, d)
}

// throttled reports whether the runtime's throttle gate is shut, as its
// qthreads_throttled gauge publishes it.
func throttled(rt *qthreads.Runtime) bool {
	return rigOf(rt).reg.Gauge("qthreads_throttled").Value() == 1
}

// throttleStops is the runtime's qthreads_throttle_stops_total.
func throttleStops(rt *qthreads.Runtime) uint64 {
	return rigOf(rt).reg.Counter("qthreads_throttle_stops_total").Value()
}

// stackOn builds sampler + blackboard + runtime on an existing machine,
// its clock parked from before the sampler's ticker registers.
func stackOn(t *testing.T, m *machine.Machine, workers int) (*rcr.Blackboard, *qthreads.Runtime) {
	t.Helper()
	mcfg := m.Config()
	release := m.Hold()
	reader, err := rapl.NewMSRReader(m.MSR())
	if err != nil {
		t.Fatal(err)
	}
	bb, err := rcr.NewBlackboard(mcfg.Sockets, mcfg.CoresPerSocket)
	if err != nil {
		t.Fatal(err)
	}
	sampler, err := rcr.StartSampler(m, reader, bb)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sampler.Stop)
	return bb, startRuntime(t, m, workers, release)
}

// fullStack builds machine + sampler + runtime + daemon.
func fullStack(t *testing.T, workers int, dcfg Config) (*machine.Machine, *qthreads.Runtime, *Daemon) {
	t.Helper()
	mcfg := machine.M620()
	mcfg.VirtualTimeLimit = 10 * time.Minute
	m, err := machine.New(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	m.WarmAll(65)
	bb, rt := stackOn(t, m, workers)
	d, err := Start(rt, bb, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)
	return m, rt, d
}

// hotMemoryLoad drives all workers with mixed compute + heavy memory
// traffic for roughly the given virtual duration: power and concurrency
// both go High.
func hotMemoryLoad(rt *qthreads.Runtime, d time.Duration) error {
	cycles := float64(rt.Machine().Config().BaseFreq) * d.Seconds()
	perCoreBW := float64(rt.Machine().Config().Mem.MaxCoreBandwidth())
	return run(rt, func(tc *qthreads.TC) {
		g := tc.NewGroup()
		for i := 0; i < rt.Workers(); i++ {
			g.Spawn(tc, func(tc *qthreads.TC) {
				for k := 0; k < 10; k++ {
					tc.Execute(machine.Work{
						Ops:     cycles / 10,
						Bytes:   perCoreBW * d.Seconds() / 10,
						Overlap: 0.85,
					})
				}
			})
		}
		g.Wait(tc)
	})
}

func TestDaemonActivatesOnHotMemoryLoad(t *testing.T) {
	leak.Check(t)
	_, rt, d := fullStack(t, 16, Config{})
	if err := hotMemoryLoad(rt, 1200*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Activations == 0 {
		t.Errorf("daemon never activated throttling: %+v", st)
	}
	if st.ThrottledTime == 0 {
		t.Error("no throttled time accumulated")
	}
	if throttleStops(rt) == 0 {
		t.Error("no worker ever hit the throttle gate")
	}
}

func TestDaemonStaysOffForComputeOnly(t *testing.T) {
	leak.Check(t)
	// Compute-bound load: power goes High but memory concurrency stays
	// Low: dual condition must keep throttling off (paper §IV-A: power
	// alone would throttle efficient programs and waste energy).
	_, rt, d := fullStack(t, 16, Config{})
	cycles := 2.7e9 * 0.8 // 800 ms
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
	st := d.Stats()
	if st.Activations != 0 {
		t.Errorf("daemon activated on compute-only load: %+v", st)
	}
	if throttled(rt) {
		t.Error("throttle left on")
	}
}

func TestDaemonDeactivatesWhenLoadDrops(t *testing.T) {
	leak.Check(t)
	_, rt, d := fullStack(t, 16, Config{})
	if err := hotMemoryLoad(rt, time.Second); err != nil {
		t.Fatal(err)
	}
	if d.Stats().Activations == 0 {
		t.Skip("throttle never engaged; nothing to deactivate")
	}
	// With the load gone, both metrics fall to Low. A second of idle
	// clock — ten polls over parked workers — must see the daemon release.
	idle(t, rt, time.Second)
	if throttled(rt) {
		t.Error("throttle still on after load dropped")
	}
	if d.Stats().Deactivations == 0 {
		t.Errorf("no deactivations recorded: %+v", d.Stats())
	}
}

// idleFor takes the clock that release holds parked, lets it run for d
// of virtual time with nothing scheduled, and returns the release of the
// hold that parks it there. A clock that only tickers drive runs as fast
// as the host steps it, so tests bound idle time in virtual time rather
// than wait for it in host time.
func idleFor(t *testing.T, m *machine.Machine, release func(), d time.Duration) func() {
	t.Helper()
	parked := make(chan func(), 1)
	id, err := m.AddTicker(d, func(time.Duration, *machine.Snapshot) { parked <- m.Hold() })
	if err != nil {
		t.Fatal(err)
	}
	release()
	defer m.RemoveTicker(id)
	return <-parked
}

func TestDaemonDefaultConfig(t *testing.T) {
	_, _, d := fullStack(t, 16, Config{})
	cfg := d.cfg
	if cfg.Period != DefaultPeriod {
		t.Errorf("Period = %v, want %v", cfg.Period, DefaultPeriod)
	}
	if cfg.ThrottleLimit != 6 {
		t.Errorf("ThrottleLimit = %d, want 6 (3/4 of 8)", cfg.ThrottleLimit)
	}
	if cfg.Thresholds.HighPower != 65 {
		t.Errorf("thresholds not defaulted: %+v", cfg.Thresholds)
	}
}

func TestStartValidation(t *testing.T) {
	m, err := machine.New(machine.M620())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	rt := startRuntime(t, m, 2, m.Hold())
	bb, _ := rcr.NewBlackboard(2, 8)
	if _, err := Start(nil, bb, Config{}); err == nil {
		t.Error("Start(nil runtime) succeeded")
	}
	if _, err := Start(rt, nil, Config{}); err == nil {
		t.Error("Start(nil blackboard) succeeded")
	}
	if _, err := Start(rt, bb, Config{Thresholds: Thresholds{HighPower: 1, LowPower: 2, HighConcurrency: 2, LowConcurrency: 1}}); err == nil {
		t.Error("Start with invalid thresholds succeeded")
	}
}

func TestStopReleasesThrottle(t *testing.T) {
	leak.Check(t)
	_, rt, d := fullStack(t, 16, Config{})
	rt.SetThrottle(true, 6)
	d.Stop()
	if throttled(rt) {
		t.Error("Stop left throttle on")
	}
}

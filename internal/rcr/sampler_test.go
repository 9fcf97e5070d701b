package rcr

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/rapl"
	"repro/internal/telemetry"
)

// parked keeps each test machine's clock parked between loads: a
// machine from newParkedMachine starts parked, and load lets it run for
// exactly as long as its load takes. Without a hold a clock that only
// tickers drive runs ahead as fast as the host steps it.
var parked sync.Map // *machine.Machine → release func()

// newParkedMachine starts a machine with its clock parked at zero and
// stops it when the test ends.
func newParkedMachine(t *testing.T, cfg machine.Config) *machine.Machine {
	t.Helper()
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	parked.Store(m, m.Hold())
	return m
}

// startSimStack builds machine + MSR RAPL reader + blackboard + sampler.
func startSimStack(t *testing.T) (*machine.Machine, *Sampler) {
	t.Helper()
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
	s, err := StartSampler(m, reader, bb)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return m, s
}

// load runs body on each listed core with the clock released for exactly
// as long as the bodies take: the last one to finish parks it again
// before its core goes, so what the test reads next is the state at the
// load's end.
func load(t *testing.T, m *machine.Machine, cores []int, body func(*machine.CoreCtx)) {
	t.Helper()
	var wg sync.WaitGroup
	var left atomic.Int32
	left.Store(int32(len(cores)))
	for _, id := range cores {
		ctx, err := m.Enroll(id)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer ctx.Release()
			body(ctx)
			if left.Add(-1) == 0 {
				parked.Store(m, m.Hold())
			}
		}()
	}
	if release, ok := parked.LoadAndDelete(m); ok {
		release.(func())()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("load did not finish")
	}
}

// burn runs a full-compute load of the given virtual duration on the
// listed cores.
func burn(t *testing.T, m *machine.Machine, cores []int, d time.Duration) {
	t.Helper()
	cycles := float64(m.Config().BaseFreq) * d.Seconds()
	load(t, m, cores, func(ctx *machine.CoreCtx) { ctx.Compute(cycles) })
}

func TestSamplerWritesEnergyAndPower(t *testing.T) {
	m, s := startSimStack(t)
	burn(t, m, []int{0, 1, 2, 3, 4, 5, 6, 7}, 200*time.Millisecond)

	bb := s.bb
	e, ok := bb.Socket(0, MeterEnergy)
	if !ok || e.Value <= 0 {
		t.Fatalf("socket 0 energy meter = %+v, %v", e, ok)
	}
	p, ok := bb.Socket(0, MeterPower)
	if !ok {
		t.Fatal("socket 0 power meter missing")
	}
	// Full socket load: expect the compute-bound per-socket figure.
	want := float64(m.Config().Power.PredictSocketPower(8, 1, 0, 0, 0, 0, 0))
	if math.Abs(p.Value-want)/want > 0.08 {
		t.Errorf("sampled socket power = %.1f W, want ~%.1f W", p.Value, want)
	}
	// System total is the sum of socket meters.
	sysP, ok := bb.System(MeterPower)
	if !ok {
		t.Fatal("system power meter missing")
	}
	p1, _ := bb.Socket(1, MeterPower)
	if math.Abs(sysP.Value-(p.Value+p1.Value)) > 1e-6 {
		t.Errorf("system power %v != sum of sockets %v", sysP.Value, p.Value+p1.Value)
	}
}

func TestSamplerTracksTemperatureAndConcurrency(t *testing.T) {
	m, s := startSimStack(t)
	m.WarmAll(66)
	// Memory-heavy load on socket 0.
	bytes := float64(m.Config().Mem.MaxCoreBandwidth())
	load(t, m, []int{0, 1, 2, 3}, func(ctx *machine.CoreCtx) { ctx.Execute(machine.Work{Bytes: bytes / 2}) })

	bb := s.bb
	temp, ok := bb.Socket(0, MeterTemperature)
	if !ok || math.Abs(temp.Value-66) > 2 {
		t.Errorf("temperature meter = %+v, want ~66", temp)
	}
	conc, ok := bb.Socket(0, MeterMemConcurrency)
	if !ok {
		t.Fatal("memconc meter missing")
	}
	// 4 cores at the per-core cap: 40 refs, above the knee.
	if conc.Value < float64(m.Config().Mem.KneeRefs) {
		t.Errorf("memconc = %.1f, want above knee %d", conc.Value, m.Config().Mem.KneeRefs)
	}
	bw, ok := bb.Socket(0, MeterMemBandwidth)
	if !ok || bw.Value <= 0 {
		t.Errorf("membw meter = %+v", bw)
	}
}

func TestSamplerIdlePowerLow(t *testing.T) {
	m, s := startSimStack(t)
	// Drive time with a single tiny-power parked core.
	load(t, m, []int{0}, func(ctx *machine.CoreCtx) { ctx.Sleep(100 * time.Millisecond) })
	p, ok := s.bb.Socket(1, MeterPower)
	if !ok {
		t.Fatal("socket 1 power missing")
	}
	idle := float64(m.Config().Power.PredictSocketPower(0, 0, 0, 0, 0, 8, 0))
	if math.Abs(p.Value-idle)/idle > 0.1 {
		t.Errorf("idle socket power = %.1f W, want ~%.1f W", p.Value, idle)
	}
}

func TestStartSamplerValidation(t *testing.T) {
	cfg := machine.M620()
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	bb, _ := NewBlackboard(cfg.Sockets, cfg.CoresPerSocket)
	// Wrong domain count.
	if _, err := StartSampler(m, rapl.NewFake(3), bb); err == nil {
		t.Error("StartSampler accepted mismatched reader")
	}
	// Wrong blackboard topology.
	bad, _ := NewBlackboard(1, 1)
	reader, _ := rapl.NewMSRReader(m.MSR())
	if _, err := StartSampler(m, reader, bad); err == nil {
		t.Error("StartSampler accepted mismatched blackboard")
	}
	// A matching reader and blackboard start.
	s, err := StartSampler(m, reader, bb)
	if err != nil {
		t.Fatal(err)
	}
	s.Stop()
}

func TestSamplerSurvivesReaderErrors(t *testing.T) {
	cfg := machine.M620()
	cfg.VirtualTimeLimit = 5 * time.Minute
	m := newParkedMachine(t, cfg)
	fake := rapl.NewFake(2)
	bb, err := NewBlackboard(cfg.Sockets, cfg.CoresPerSocket)
	if err != nil {
		t.Fatal(err)
	}
	s, err := StartSampler(m, fake, bb)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)

	fake.Add(0, 5)
	burn(t, m, []int{0}, 50*time.Millisecond)
	if _, ok := bb.Socket(0, MeterEnergy); !ok {
		t.Fatal("energy meter missing before fault")
	}
	before, _ := bb.Socket(0, MeterEnergy)

	// Reader starts failing: the daemon must keep running and keep the
	// last good energy value rather than tearing down.
	fake.SetError(errBoom)
	burn(t, m, []int{0}, 50*time.Millisecond)
	after, ok := bb.Socket(0, MeterEnergy)
	if !ok || after.Value != before.Value {
		t.Errorf("energy meter changed during reader fault: %+v vs %+v", after, before)
	}
	// Non-energy meters keep updating from the machine snapshot.
	temp, ok := bb.Socket(0, MeterTemperature)
	if !ok || temp.Updated <= before.Updated {
		t.Errorf("temperature meter stale during reader fault: %+v", temp)
	}

	// Recovery.
	fake.SetError(nil)
	fake.Add(0, 7)
	burn(t, m, []int{0}, 50*time.Millisecond)
	rec, _ := bb.Socket(0, MeterEnergy)
	if rec.Value <= before.Value {
		t.Errorf("energy meter did not recover: %+v", rec)
	}
}

var errBoom = errors.New("boom")

// TestSamplerTickIsOneWrite: a tick publishes its meters as one write.
// Every meter of the tick carries the tick's publish version, the
// blackboard's write counter still counts meters, and a meter the gate
// drops keeps the stamp and version of the tick before.
func TestSamplerTickIsOneWrite(t *testing.T) {
	s, snap := benchSampler(t, 2)
	reg := telemetry.NewRegistry()
	s.bb.Instrument(reg)
	const ms = time.Millisecond
	// The first tick has no power baseline: two socket energies, six
	// socket uncore meters, system energy and heartbeat. The second has
	// all thirteen.
	s.sample(10*ms, snap)
	s.sample(20*ms, snap)
	if v := s.bb.pub.Load(); v != 2 {
		t.Fatalf("two ticks published %d versions, want 2", v)
	}
	if n := reg.Counter("rcr_blackboard_writes_total").Value(); n != 10+13 {
		t.Errorf("writes counter %d after two ticks, want 23", n)
	}
	type stamp struct {
		upd time.Duration
		ver uint64
	}
	read := func(sl *slot) stamp {
		_, upd, ver := sl.load()
		return stamp{time.Duration(upd), ver}
	}
	var all []*slot
	for d := range s.sockSlots {
		all = append(all, s.sockSlots[d][:]...)
	}
	all = append(all, s.sysSlots[:]...)
	for i, sl := range all {
		if got := read(sl); got != (stamp{20 * ms, 2}) {
			t.Errorf("meter %d after the second tick: %+v, want stamp 20ms at version 2", i, got)
		}
	}

	s.SetFaultGates(nil, func(_ time.Duration, socket int, meter string) bool {
		return socket != 1 || meter != MeterTemperature
	})
	s.sample(30*ms, snap)
	dropped := s.sockSlots[1][meterTemperature]
	for i, sl := range all {
		want := stamp{30 * ms, 3}
		if sl == dropped {
			want = stamp{20 * ms, 2}
		}
		if got := read(sl); got != want {
			t.Errorf("meter %d after the gated tick: %+v, want %+v", i, got, want)
		}
	}
	if n := reg.Counter("rcr_blackboard_writes_total").Value(); n != 23+12 {
		t.Errorf("writes counter %d after the gated tick, want 35", n)
	}
}

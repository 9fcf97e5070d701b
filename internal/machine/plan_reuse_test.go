// Edge table for plan reuse (docs/engine.md §Plan reuse): every way the
// inputs of a cached plan can change, and every event that must act on
// the very next step without touching the plan, applied in the middle of
// a stretch of steps that reuse the plan. External test package because
// the referee, internal/refmodel, imports machine.
package machine_test

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/refmodel"
	"repro/internal/units"
)

// edgeConfig is an M620 with Turbo on (so occupancy changes move every
// rate on the socket) and a thermal time constant short enough that the
// temperature, and with it leakage, moves inside a stretch.
func edgeConfig() machine.Config {
	cfg := machine.M620()
	cfg.IdlePace = -1
	cfg.VirtualTimeLimit = time.Minute
	cfg.Turbo = machine.DefaultTurbo()
	cfg.Thermal.TimeConstant = 200 * time.Millisecond
	return cfg
}

// msOfWork is a work item of the given length at nominal speed:
// bandwidth-hungry enough to make the allocator's grant part of its plan.
func msOfWork(ms float64) machine.Work {
	ops := ms * 2.7e6
	return machine.Work{Ops: ops, Bytes: 2 * ops, Overlap: 0.5, Activity: 0.8}
}

const ms = time.Millisecond

// TestPlanReuseEdges is the scenario half of the table: edges the
// refmodel scenario language can express, refereed by the naive
// reference engine bit for bit (every StepRecord, ticker fire and final
// register). Each row runs a 60 ms hauler on core 1 — sixty MaxStep
// quanta of one unchanged plan — and lands its edge in the middle.
func TestPlanReuseEdges(t *testing.T) {
	exec := func(ms float64) refmodel.Op { return refmodel.Op{Kind: refmodel.OpExecute, Work: msOfWork(ms)} }
	sleep := func(d time.Duration) refmodel.Op { return refmodel.Op{Kind: refmodel.OpSleep, D: d} }
	duty := func(level int) refmodel.Op { return refmodel.Op{Kind: refmodel.OpSetDuty, Level: level} }
	onLine := func(ms float64) refmodel.Op {
		return refmodel.Op{Kind: refmodel.OpAtomic, Line: 0, N: ms * 2.7e6 / 200}
	}
	start := func(ws ...int) []refmodel.GlobalOp {
		var ops []refmodel.GlobalOp
		for _, w := range ws {
			ops = append(ops, refmodel.GlobalOp{Kind: refmodel.GlobalStartWorker, Worker: w})
		}
		return ops
	}
	dvfs := func(scale float64) refmodel.GlobalOp {
		return refmodel.GlobalOp{Kind: refmodel.GlobalDVFS, Socket: 0, Scale: scale}
	}

	rows := []struct {
		name string
		// others are the scripts of cores 2, 3, … beside the hauler.
		others [][]refmodel.Op
		phases []refmodel.Phase
	}{
		{
			name:   "a worker enrolls and blocks",
			others: [][]refmodel.Op{{exec(25)}},
			phases: []refmodel.Phase{{Ops: start(0), Sleep: 20 * ms}, {Ops: start(1), Sleep: 10 * ms}},
		},
		{
			name:   "a neighbour completes and releases",
			others: [][]refmodel.Op{{exec(7.3), exec(11.9)}},
			phases: []refmodel.Phase{{Ops: start(0, 1), Sleep: 10 * ms}},
		},
		{
			name:   "a sleeper's deadline",
			others: [][]refmodel.Op{{sleep(7300 * time.Microsecond), sleep(11100 * time.Microsecond), sleep(5 * ms)}},
			phases: []refmodel.Phase{{Ops: start(0, 1), Sleep: 10 * ms}},
		},
		{
			name:   "a spinner comes and goes",
			others: [][]refmodel.Op{{sleep(5 * ms), {Kind: refmodel.OpSpinFor, D: 9 * ms}, sleep(3 * ms)}},
			phases: []refmodel.Phase{{Ops: start(0, 1), Sleep: 10 * ms}},
		},
		{
			name:   "a line group gains and loses a member",
			others: [][]refmodel.Op{{onLine(20)}, {sleep(6 * ms), onLine(6)}},
			phases: []refmodel.Phase{{Ops: start(0, 1, 2), Sleep: 10 * ms}},
		},
		{
			name:   "SetDutyLevel on a neighbour",
			others: [][]refmodel.Op{{sleep(8 * ms), duty(12), exec(10), duty(32), exec(10)}},
			phases: []refmodel.Phase{{Ops: start(0, 1), Sleep: 10 * ms}},
		},
		{
			// The second request repeats the applied scale: nothing to
			// apply, nothing invalidated, nothing may change.
			name: "DVFS requests, applied and not",
			phases: []refmodel.Phase{
				{Ops: start(0), Sleep: 15 * ms},
				{Ops: []refmodel.GlobalOp{dvfs(0.7)}, Sleep: 15 * ms},
				{Ops: []refmodel.GlobalOp{dvfs(0.7)}, Sleep: 15 * ms},
				{Ops: []refmodel.GlobalOp{dvfs(1)}, Sleep: 15 * ms},
			},
		},
		{
			// Not an invalidation: the plan stands, but the very next
			// step must stop at the new ticker's first deadline, and the
			// one after its removal must not.
			name: "AddTicker and RemoveTicker",
			phases: []refmodel.Phase{
				{Ops: start(0), Sleep: 20 * ms},
				{Ops: []refmodel.GlobalOp{{Kind: refmodel.GlobalAddTicker, Ticker: 0, Period: 300 * time.Microsecond}}, Sleep: 10 * ms},
				{Ops: []refmodel.GlobalOp{{Kind: refmodel.GlobalRemoveTicker, Ticker: 0}}, Sleep: 10 * ms},
			},
		},
	}
	for _, row := range rows {
		row := row
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			sc := refmodel.Scenario{
				Cfg:         edgeConfig(),
				Lines:       []refmodel.LineParams{{CostCycles: 200, PingPong: 0.5, Activity: 0.6}},
				Workers:     []refmodel.Worker{{Core: 1, Ops: []refmodel.Op{exec(60)}}},
				Phases:      row.phases,
				TickerSlots: 1,
			}
			for i, ops := range row.others {
				sc.Workers = append(sc.Workers, refmodel.Worker{Core: 2 + i, Ops: ops})
			}
			got, err := refmodel.DifferentialTrajectory(sc)
			if err != nil {
				t.Fatal(err)
			}
			if n, longest := quiescentSteps(got.Steps, sc.Cfg.MaxStep); n < 30 || longest < 5 {
				t.Errorf("%d quiescent steps of %d, longest run %d: the edge did not land in a cached stretch",
					n, len(got.Steps), longest)
			}
		})
	}
}

// TestPlanReuseTrafficRunsOutFirst is the one invalidation edge that
// ends a run instead of continuing it. A busy core whose remaining bytes
// reach zero while cycles remain stops demanding bandwidth; replanning
// then grants it nothing, so it can no longer progress, and both engines
// stop with the stalled-core error. An engine that kept its cached rates
// would sail on to a normal completion instead. The work is hand-built
// to get there: 7.9e-317 bytes over 1e7 cycles is 1.6 denormal units per
// cycle, which rounds to 2, so the traffic is charged a quarter too fast
// and runs out on the third of the item's four MaxStep quanta.
func TestPlanReuseTrafficRunsOutFirst(t *testing.T) {
	sc := refmodel.Scenario{
		Cfg: edgeConfig(),
		Workers: []refmodel.Worker{{Core: 1, Ops: []refmodel.Op{{
			Kind: refmodel.OpExecute,
			Work: machine.Work{Ops: 1e7, Bytes: 7.9e-317},
		}}}},
		Phases: []refmodel.Phase{{
			Ops:   []refmodel.GlobalOp{{Kind: refmodel.GlobalStartWorker, Worker: 0}},
			Sleep: 10 * ms,
		}},
	}
	sc.Cfg.Turbo = machine.TurboParams{} // nominal clock: 2.7e6 cycles a quantum
	const stalled = "core 1 stalled with no progress possible"
	if _, err := refmodel.Run(sc); err == nil || !strings.Contains(err.Error(), stalled) {
		t.Fatalf("reference engine: err = %v, want %q", err, stalled)
	}
	got, err := refmodel.PlayMachine(sc)
	if err == nil || !strings.Contains(err.Error(), stalled) {
		t.Fatalf("machine engine: err = %v, want %q", err, stalled)
	}
	if n := len(got.Steps); n != 3 || got.Steps[n-1].Now != 3*ms {
		t.Fatalf("machine engine took %d steps, the last at %v; want 3, the last at 3ms", n, got.Steps[n-1].Now)
	}
}

// TestPlanReuseMachineOnlyEdges is the other half of the table: edges
// that reach the engine from outside any enrolled core, which refmodel's
// scenarios cannot express. The referee is the machine itself with its
// plan invalidated after every step (machine.InvalidatePlan) — the
// replan-every-step engine that TestPlanReuseEdges and the differential
// corpora hold to the reference bit for bit. Each row runs two haulers
// and applies its edge from a 7 ms ticker's callback at the 21 ms fire,
// mid-stretch.
func TestPlanReuseMachineOnlyEdges(t *testing.T) {
	const edgeAt = 21 * ms
	var plain []machine.StepRecord // the run with no edge at all
	after := func(recs []machine.StepRecord) machine.StepRecord {
		for _, r := range recs {
			if r.Now > edgeAt {
				return r
			}
		}
		t.Fatal("no step after the edge")
		return machine.StepRecord{}
	}
	rows := []struct {
		name  string
		edge  func(m *machine.Machine, wg *sync.WaitGroup)
		check func(t *testing.T, recs []machine.StepRecord)
	}{
		{
			name: "no edge",
			edge: func(*machine.Machine, *sync.WaitGroup) {},
			check: func(t *testing.T, recs []machine.StepRecord) {
				plain = recs
				if n, longest := quiescentSteps(recs, ms); n < 60 || longest < 6 {
					t.Errorf("%d quiescent steps, longest run %d: no cached stretch to land an edge in", n, longest)
				}
			},
		},
		{
			// Enrolment from outside any core (a runtime starting its
			// workers): no wake precedes it, so Enroll and the block that
			// follows are the only things that can invalidate.
			name: "a worker enrolled from outside",
			edge: func(m *machine.Machine, wg *sync.WaitGroup) {
				ctx, err := m.Enroll(3)
				if err != nil {
					t.Error(err)
					return
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer ctx.Release()
					ctx.Execute(msOfWork(10))
				}()
			},
			check: func(t *testing.T, recs []machine.StepRecord) {
				if r, base := after(recs), after(plain); r.Sockets[0].Power <= base.Sockets[0].Power {
					t.Errorf("step after the enrolment draws %v W, no more than the undisturbed run's %v W",
						r.Sockets[0].Power, base.Sockets[0].Power)
				}
			},
		},
		{
			// The one DVFS path that invalidates on its own: a request
			// from a ticker (as the MAESTRO daemon issues them), with
			// every enrolled core blocked.
			name: "DVFS request from a ticker",
			edge: func(m *machine.Machine, _ *sync.WaitGroup) {
				if err := m.RequestFrequencyScale(0, 0.7); err != nil {
					t.Error(err)
				}
			},
			check: func(t *testing.T, recs []machine.StepRecord) {
				if r := after(recs); r.Sockets[0].FreqScale != 0.7 || r.Sockets[1].FreqScale != 1 {
					t.Errorf("step after the request ran at scales %v / %v, want 0.7 / 1",
						r.Sockets[0].FreqScale, r.Sockets[1].FreqScale)
				}
			},
		},
		{
			// Not an invalidation: temperature is read live every step.
			name: "SetTemperature",
			edge: func(m *machine.Machine, _ *sync.WaitGroup) {
				if err := m.SetTemperature(0, 80); err != nil {
					t.Error(err)
				}
			},
			check: func(t *testing.T, recs []machine.StepRecord) {
				r, base := after(recs), after(plain)
				if d := r.Sockets[0].Temperature - 80; math.Abs(d) > 0.5 {
					t.Errorf("temperature one step after SetTemperature(80) = %.2f", r.Sockets[0].Temperature)
				}
				// Same plan, hotter die: the step's power is the
				// undisturbed run's times the ratio of the leakage factors
				// at the two temperatures the step started from.
				var undisturbed float64
				for _, p := range plain {
					if p.Now == edgeAt {
						undisturbed = p.Sockets[0].Temperature
					}
				}
				tp := edgeConfig().Thermal
				want := base.Sockets[0].Power * tp.LeakageFactorAt(80) / tp.LeakageFactorAt(units.Celsius(undisturbed))
				if math.Abs(r.Sockets[0].Power/want-1) > 1e-12 {
					t.Errorf("power one step after SetTemperature(80) = %v W, want %v W", r.Sockets[0].Power, want)
				}
			},
		},
		{
			// Not an invalidation, and invisible in the records: a hold
			// parks the clock, its release and a Kick restart it.
			name: "Hold, release and Kick",
			edge: func(m *machine.Machine, _ *sync.WaitGroup) {
				release := m.Hold()
				go func() {
					frozen := m.Now()
					time.Sleep(2 * time.Millisecond)
					if now := m.Now(); now != frozen {
						t.Errorf("virtual time moved %v -> %v under a hold", frozen, now)
					}
					release()
					m.Kick()
				}()
			},
			check: func(t *testing.T, recs []machine.StepRecord) {
				if err := refmodel.Compare(&refmodel.Result{Steps: recs}, &refmodel.Result{Steps: plain}); err != nil {
					t.Errorf("a hold changed the trajectory: %v", err)
				}
			},
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			cached := playHaulers(t, edgeAt, row.edge, false)
			referee := playHaulers(t, edgeAt, row.edge, true)
			if err := refmodel.Compare(&refmodel.Result{Steps: cached}, &refmodel.Result{Steps: referee}); err != nil {
				t.Fatalf("plan-reusing engine vs replan-every-step referee: %v", err)
			}
			row.check(t, cached)
		})
	}
}

// playHaulers runs a 60 ms and an 80 ms hauler on cores 1 and 2 under a
// 7 ms ticker, calls edge from the ticker's callback at the edgeAt fire,
// and returns every step's record. With replanEveryStep the machine's
// plan is invalidated after every step. The clock is held while the run
// is assembled and the last hauler removes the ticker before it releases
// its core, so the step sequence is the same on every run.
func playHaulers(t *testing.T, edgeAt time.Duration, edge func(*machine.Machine, *sync.WaitGroup), replanEveryStep bool) []machine.StepRecord {
	t.Helper()
	m, err := machine.New(edgeConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	release := m.Hold()
	var recs []machine.StepRecord
	m.SetStepHook(func(r machine.StepRecord) {
		recs = append(recs, r)
		if replanEveryStep {
			machine.InvalidatePlan(m)
		}
	})
	var wg sync.WaitGroup
	ticker, err := m.AddTicker(7*ms, func(now time.Duration, _ *machine.Snapshot) {
		if now == edgeAt {
			edge(m, &wg)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var hauling atomic.Int32
	for core, length := range map[int]float64{1: 60, 2: 80} {
		ctx, err := m.Enroll(core)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		hauling.Add(1)
		go func(w machine.Work) {
			defer wg.Done()
			defer ctx.Release()
			ctx.Execute(w)
			if hauling.Add(-1) == 0 {
				m.RemoveTicker(ticker)
			}
		}(msOfWork(length))
	}
	release()
	wg.Wait()
	m.Stop()
	return recs
}

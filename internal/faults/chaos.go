package faults

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/maestro"
	"repro/internal/qthreads"
	"repro/internal/refmodel"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// ChaosConfig tunes one chaos run: the node core.New builds, on a small
// seed-derived topology, with a seeded fault schedule injected at every
// seam, checked against the differential oracle's physics audit and the
// fail-safe invariants.
type ChaosConfig struct {
	// Seed determines the topology, the fault schedule and the injected
	// garbage values.
	Seed uint64
	// Policy selects the daemon policy; the zero value is the daemon
	// default (dual-condition). Every policy — adaptive included — is
	// held to the same invariants: the staleness watchdog gates its
	// inputs, so zero stale-horizon decisions must hold regardless of
	// what the policy's internal model does.
	Policy maestro.Policy
}

// ChaosReport is the outcome of one chaos run.
type ChaosReport struct {
	Seed           uint64
	Policy         maestro.Policy // daemon policy the run exercised
	Sockets, Cores int            // cores per socket
	Events         int
	ClearTime      time.Duration

	// Injected[k] counts fired injections of Kind(k).
	Injected [NumKinds]uint64

	// Pipeline reactions.
	Daemon          maestro.Stats
	SamplerRestarts uint64
	Quarantines     uint64
	GuardRecoveries uint64
	StaleDecisions  int           // decision records older than the horizon (must be 0)
	ConvergedAt     time.Duration // virtual time of the last fail-safe recovery
	Steps           int

	// Violations lists every broken invariant; empty means the run
	// passed. Audit failures, deadlocks, stale decisions and
	// non-convergence all land here.
	Violations []string
}

// The shape of every chaos run.
const (
	// chaosHorizon is the virtual-time window during which faults may
	// fire (the schedule closes all windows by 80% of it).
	chaosHorizon = 400 * time.Millisecond
	// chaosTail extends the run past chaosHorizon so the pipeline has
	// room to converge after the last fault clears.
	chaosTail = 300 * time.Millisecond
	// chaosPollPeriod is the daemon's poll period: a tenth of the
	// paper's 0.1 s, so a run of chaosHorizon+chaosTail sees 70 polls.
	chaosPollPeriod = 10 * time.Millisecond
	// chaosConvergeQuanta bounds recovery: after the last fault window
	// closes, the daemon must have left fail-safe within this many poll
	// periods.
	chaosConvergeQuanta = 25
	// chaosWallBudget aborts a wedged run after this much host time —
	// the no-deadlock invariant is checked against it.
	chaosWallBudget = 30 * time.Second
)

// Passed reports whether the run satisfied every invariant.
func (r *ChaosReport) Passed() bool { return len(r.Violations) == 0 }

func (r *ChaosReport) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// RunChaos builds the shipped node (core.New) on a seed-derived small
// topology, injects the seed's fault schedule at every layer, drives a
// memory-and-compute workload through the task runtime, and checks:
//
//   - the physics audit (refmodel.Audit) holds on the step trace and
//     the final architectural state — injected sensor faults corrupt
//     observation, never physics;
//   - the run terminates within the wall budget (no deadlock) and the
//     machine reports no virtual-time abort;
//   - the daemon never records a throttle decision on data older than
//     its staleness horizon;
//   - once the last fault window closes, the pipeline converges: the
//     daemon leaves fail-safe within chaosConvergeQuanta polls, the
//     sampler is alive, and no RAPL domain is left quarantined.
func RunChaos(cfg ChaosConfig) (*ChaosReport, error) {
	// Seed-derived small topology: 1–2 sockets × 2–3 cores keeps a
	// chaos corpus of hundreds of runs cheap while still exercising the
	// multi-socket paths half the time.
	r0 := splitmix64(cfg.Seed)
	mcfg := machine.M620()
	mcfg.Sockets = 1 + int(r0%2)
	mcfg.CoresPerSocket = 2 + int((r0>>8)%2)
	mcfg.MaxStep = 500 * time.Microsecond
	end := chaosHorizon + chaosTail
	mcfg.VirtualTimeLimit = 10 * end

	rep := &ChaosReport{Seed: cfg.Seed, Policy: cfg.Policy, Sockets: mcfg.Sockets, Cores: mcfg.CoresPerSocket}

	// The step hook doubles as the injector's lock-free clock feed: it
	// runs under the machine lock, where machine.Now would deadlock.
	var nowA atomic.Int64
	clock := func() time.Duration { return time.Duration(nowA.Load()) }
	sched := GenerateSchedule(cfg.Seed, chaosHorizon, mcfg.Sockets)
	inj := NewInjector(sched, clock)
	rep.Events = len(inj.Schedule().Events)
	rep.ClearTime = ClearTime(inj.Schedule().Events)

	// Thresholds scaled to what this topology can actually draw, so
	// the workload below crosses them and the throttle path (and its
	// injected actuation faults) gets exercised: High at half of the
	// all-cores-active socket power, concurrency High at a handful of
	// outstanding references. PowerCapped binds at the same half.
	est := float64(mcfg.Power.UncoreBase) + float64(mcfg.CoresPerSocket)*float64(mcfg.Power.CoreActive)
	knee := float64(mcfg.Mem.KneeRefs)
	sys, err := core.New(core.Options{
		Machine:            mcfg,
		AdaptiveThrottling: true,
		Maestro: maestro.Config{
			Period: chaosPollPeriod,
			Thresholds: maestro.Thresholds{
				HighPower:       units.Watts(0.50 * est),
				LowPower:        units.Watts(0.25 * est),
				HighConcurrency: 0.15 * knee,
				LowConcurrency:  0.02 * knee,
			},
			Policy:        cfg.Policy,
			Cap:           units.Watts(0.50 * est * float64(mcfg.Sockets)),
			ActuationHook: inj.Actuation(),
		},
		Telemetry: true,
	})
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	// core.New parks the clock, so the hooks and gates are in place
	// before the first step.
	m := sys.Machine()
	var steps []machine.StepRecord
	m.SetStepHook(func(r machine.StepRecord) {
		steps = append(steps, r)
		nowA.Store(int64(r.Now))
	})
	m.MSR().SetReadHook(inj.MSRReadHook())
	sys.Sampler().SetFaultGates(inj.SamplerTick(), inj.MeterGate())

	// Wall-clock watchdog: a wedged pipeline (the no-deadlock invariant
	// failing) is broken out of by stopping the machine, which aborts
	// every blocked worker.
	var wedged atomic.Bool
	watchdog := time.AfterFunc(chaosWallBudget, func() {
		wedged.Store(true)
		m.Stop()
	})
	defer watchdog.Stop()

	// Mixed compute + streaming workload: stall-heavy enough to raise
	// outstanding references past the concurrency threshold, active
	// enough to cross the power one.
	work := machine.Work{Ops: 400e3, Bytes: 4e6, Overlap: 0.5}
	_, runErr := sys.Run("chaos", func(tc *qthreads.TC) {
		for tc.Machine().Now() < end {
			tc.ParallelFor(2*mcfg.Cores(), 0, func(tc *qthreads.TC, lo, hi int) {
				for i := lo; i < hi; i++ {
					tc.Execute(work)
				}
			})
		}
	})

	// ---- Invariant checks ----

	if wedged.Load() {
		rep.violate("wall-clock watchdog fired after %v: pipeline wedged (possible deadlock)", chaosWallBudget)
	}
	if runErr != nil && !wedged.Load() {
		rep.violate("workload aborted: %v (machine: %v)", runErr, m.Err())
	}

	// Convergence: all fault windows are closed, the tail has passed —
	// the stack must be back to normal operation.
	daemon, sampler := sys.Daemon(), sys.Sampler()
	rep.Daemon = daemon.Stats()
	if rep.Daemon.Failsafe {
		rep.violate("daemon still in fail-safe at end of run (clear was t=%v)", rep.ClearTime)
	}
	if !sampler.Alive() {
		rep.violate("sampler dead at end of run despite its watchdog")
	}
	if q := sys.Guard().Quarantined(); q != 0 {
		rep.violate("%d RAPL domain(s) still quarantined at end of run", q)
	}

	rep.SamplerRestarts = sampler.Restarts()
	reg := sys.Telemetry()
	rep.Quarantines = reg.Counter("rapl_guard_quarantines_total").Value()
	rep.GuardRecoveries = reg.Counter("rapl_guard_recoveries_total").Value()
	for k := Kind(0); k < NumKinds; k++ {
		rep.Injected[k] = inj.Injected(k)
	}

	// Journal scan: no throttle decision may rest on data older than
	// the staleness horizon, and if fail-safe was entered it must have
	// been left within the convergence budget.
	horizon := daemon.Horizon()
	deadline := rep.ClearTime + chaosConvergeQuanta*chaosPollPeriod
	var lastRecovery time.Duration
	for _, e := range sys.Journal().Entries() {
		switch e.Kind {
		case telemetry.KindDecision:
			if e.Staleness > horizon {
				rep.StaleDecisions++
			}
		case telemetry.KindRecovered:
			lastRecovery = e.T
		}
	}
	if rep.StaleDecisions > 0 {
		rep.violate("%d throttle decision(s) on data older than the %v horizon", rep.StaleDecisions, horizon)
	}
	rep.ConvergedAt = lastRecovery
	if rep.Daemon.FailsafeEntries > 0 {
		if lastRecovery == 0 {
			rep.violate("fail-safe entered %d time(s) but never recovered", rep.Daemon.FailsafeEntries)
		} else if lastRecovery > deadline {
			rep.violate("last fail-safe recovery at t=%v, after the convergence deadline %v (clear %v + %d polls)",
				lastRecovery, deadline, rep.ClearTime, chaosConvergeQuanta)
		}
	}

	// Teardown before the physics audit: the step trace must be
	// complete and the engine stopped before final state is read.
	sys.Close()
	watchdog.Stop()
	if merr := m.Err(); merr != nil && runErr == nil {
		rep.violate("machine error: %v", merr)
	}

	rep.Steps = len(steps)
	res := &refmodel.Result{Steps: steps}
	for s := 0; s < mcfg.Sockets; s++ {
		res.Energy = append(res.Energy, float64(m.SocketEnergy(s)))
		res.Counters = append(res.Counters, m.MSR().PackageEnergyCounter(s))
	}
	if err := refmodel.Audit(refmodel.Scenario{Cfg: mcfg}, res); err != nil {
		rep.violate("physics audit failed: %v", err)
	}
	return rep, nil
}

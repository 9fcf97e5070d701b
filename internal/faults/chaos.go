package faults

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/machine"
	"repro/internal/maestro"
	"repro/internal/msr"
	"repro/internal/qthreads"
	"repro/internal/rapl"
	"repro/internal/rcr"
	"repro/internal/refmodel"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// ChaosConfig tunes one chaos run: the full RAPL → RCR → MAESTRO →
// qthreads stack on a small simulated node, with a seeded fault
// schedule injected at every seam, checked against the differential
// oracle's physics audit and the fail-safe invariants.
type ChaosConfig struct {
	// Seed determines the topology, the fault schedule and the injected
	// garbage values.
	Seed uint64
	// Horizon is the virtual-time window during which faults may fire
	// (the schedule closes all windows by 80% of it). Zero selects
	// 400 ms.
	Horizon time.Duration
	// Tail extends the run past Horizon so the pipeline has room to
	// converge after the last fault clears. Zero selects 300 ms.
	Tail time.Duration
	// ConvergeQuanta bounds recovery: after the last fault window
	// closes, the daemon must have left fail-safe within this many poll
	// periods. Zero selects 25.
	ConvergeQuanta int
	// WallBudget aborts a wedged run after this much host time — the
	// no-deadlock invariant is checked against it. Zero selects 30 s.
	WallBudget time.Duration
	// Policy selects the daemon policy; the zero value is the daemon
	// default (dual-condition). Every policy — adaptive included — is
	// held to the same invariants: the staleness watchdog gates its
	// inputs, so zero stale-horizon decisions must hold regardless of
	// what the policy's internal model does.
	Policy maestro.Policy
	// Telemetry, when non-nil, receives the whole stack's instruments;
	// nil creates a private registry (the report reads it either way).
	Telemetry *telemetry.Registry
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

// Passed reports whether the run satisfied every invariant.
func (r *ChaosReport) Passed() bool { return len(r.Violations) == 0 }

func (r *ChaosReport) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// RunChaos assembles the full stack on a seed-derived small topology,
// injects the seed's fault schedule at every layer, drives a
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
//     daemon leaves fail-safe within ConvergeQuanta polls, the sampler
//     is alive, and no RAPL domain is left quarantined.
func RunChaos(cfg ChaosConfig) (*ChaosReport, error) {
	if cfg.Horizon <= 0 {
		cfg.Horizon = 400 * time.Millisecond
	}
	if cfg.Tail <= 0 {
		cfg.Tail = 300 * time.Millisecond
	}
	if cfg.ConvergeQuanta <= 0 {
		cfg.ConvergeQuanta = 25
	}
	if cfg.WallBudget <= 0 {
		cfg.WallBudget = 30 * time.Second
	}
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}

	// Seed-derived small topology: 1–2 sockets × 2–3 cores keeps a
	// chaos corpus of hundreds of runs cheap while still exercising the
	// multi-socket paths half the time.
	r0 := splitmix64(cfg.Seed)
	mcfg := machine.M620()
	mcfg.Sockets = 1 + int(r0%2)
	mcfg.CoresPerSocket = 2 + int((r0>>8)%2)
	mcfg.MaxStep = 500 * time.Microsecond
	end := cfg.Horizon + cfg.Tail
	mcfg.VirtualTimeLimit = 10 * end

	rep := &ChaosReport{Seed: cfg.Seed, Policy: cfg.Policy, Sockets: mcfg.Sockets, Cores: mcfg.CoresPerSocket}

	m, err := machine.New(mcfg)
	if err != nil {
		return nil, err
	}
	defer m.Stop()
	// The stack assembles on a parked clock and the run starts on it; the
	// checks below read the state at the run's completion instant.
	release := m.Hold()

	// The step hook doubles as the injector's lock-free clock feed: it
	// runs under the machine lock, where machine.Now would deadlock.
	var steps []machine.StepRecord
	var nowA atomic.Int64
	m.SetStepHook(func(r machine.StepRecord) {
		steps = append(steps, r)
		nowA.Store(int64(r.Now))
	})
	clock := func() time.Duration { return time.Duration(nowA.Load()) }

	sched := GenerateSchedule(cfg.Seed, cfg.Horizon, mcfg.Sockets)
	inj := NewInjector(sched, clock)
	rep.Events = len(inj.Schedule().Events)
	rep.ClearTime = inj.Schedule().ClearTime()
	m.MSR().SetReadHook(inj.MSRReadHook())

	// Sensor chain: raw MSR reader, wrapped in a Guard tuned to the
	// 2 ms sample period so quarantine backoff resolves within a few
	// sample windows.
	const samplePeriod = 2 * time.Millisecond
	reader, err := rapl.NewMSRReader(m.MSR())
	if err != nil {
		return nil, err
	}
	guard, err := rapl.NewGuard(reader, rapl.GuardConfig{
		Clock:           clock,
		SuspectAfter:    2,
		Backoff:         samplePeriod,
		BackoffMax:      4 * samplePeriod,
		MaxWindowJoules: 500,
		StuckAfter:      4,
		Telemetry:       reg,
	})
	if err != nil {
		return nil, err
	}
	bb, err := rcr.NewBlackboard(mcfg.Sockets, mcfg.CoresPerSocket)
	if err != nil {
		return nil, err
	}
	bb.Instrument(reg)
	sup, err := rcr.StartSupervisor(m, guard, bb, rcr.SupervisorConfig{
		SamplePeriod: samplePeriod,
		CheckPeriod:  3 * samplePeriod,
		StaleAfter:   6 * samplePeriod,
		Telemetry:    reg,
	})
	if err != nil {
		return nil, err
	}
	defer sup.Stop()
	sup.SetFaultGates(inj.SamplerTick(), inj.MeterGate())

	qcfg := qthreads.DefaultConfig()
	qcfg.Workers = mcfg.Cores()
	qcfg.Telemetry = reg
	rt, err := qthreads.New(m, qcfg)
	if err != nil {
		return nil, err
	}
	defer rt.Shutdown()

	// Thresholds scaled to what this topology can actually draw, so
	// the workload below crosses them and the throttle path (and its
	// injected actuation faults) gets exercised: High at half of the
	// all-cores-active socket power, concurrency High at a handful of
	// outstanding references.
	est := float64(mcfg.Power.UncoreBase) + float64(mcfg.CoresPerSocket)*float64(mcfg.Power.CoreActive)
	knee := float64(mcfg.Mem.KneeRefs)
	const pollPeriod = 10 * time.Millisecond
	journal := telemetry.NewJournal(4096, mcfg.Sockets)
	dcfg := maestro.Config{
		Period: pollPeriod,
		Thresholds: maestro.Thresholds{
			HighPower:       units.Watts(0.50 * est),
			LowPower:        units.Watts(0.25 * est),
			HighConcurrency: 0.15 * knee,
			LowConcurrency:  0.02 * knee,
		},
		StalenessHorizon: 2 * pollPeriod,
		RecoveryPolls:    2,
		Policy:           cfg.Policy,
		ActuationHook:    inj.Actuation(),
		Telemetry:        reg,
		Journal:          journal,
	}
	daemon, err := maestro.Start(rt, bb, dcfg)
	if err != nil {
		return nil, err
	}
	defer daemon.Stop()

	// Wall-clock watchdog: a wedged pipeline (the no-deadlock invariant
	// failing) is broken out of by stopping the machine, which aborts
	// every blocked worker.
	var wedged atomic.Bool
	watchdog := time.AfterFunc(cfg.WallBudget, func() {
		wedged.Store(true)
		m.Stop()
	})
	defer watchdog.Stop()

	// Mixed compute + streaming workload: stall-heavy enough to raise
	// outstanding references past the concurrency threshold, active
	// enough to cross the power one.
	work := machine.Work{Ops: 400e3, Bytes: 4e6, Overlap: 0.5}
	_, runErr := rt.RunHeld(func(tc *qthreads.TC) {
		for tc.Machine().Now() < end {
			tc.ParallelFor(2*mcfg.Cores(), 0, func(tc *qthreads.TC, lo, hi int) {
				for i := lo; i < hi; i++ {
					tc.Execute(work)
				}
			})
		}
	}, release)

	// ---- Invariant checks ----

	if wedged.Load() {
		rep.violate("wall-clock watchdog fired after %v: pipeline wedged (possible deadlock)", cfg.WallBudget)
	}
	if runErr != nil && !wedged.Load() {
		rep.violate("workload aborted: %v (machine: %v)", runErr, m.Err())
	}

	// Convergence: all fault windows are closed, the Tail has passed —
	// the stack must be back to normal operation.
	if daemon.Failsafe() {
		rep.violate("daemon still in fail-safe at end of run (clear was t=%v)", rep.ClearTime)
	}
	if !sup.Sampler().Alive() {
		rep.violate("sampler dead at end of run despite supervisor")
	}
	if q := guard.Quarantined(); q != 0 {
		rep.violate("%d RAPL domain(s) still quarantined at end of run", q)
	}

	rep.Daemon = daemon.Stats()
	rep.SamplerRestarts = sup.Restarts()
	rep.Quarantines = reg.Counter("rapl_guard_quarantines_total").Value()
	rep.GuardRecoveries = reg.Counter("rapl_guard_recoveries_total").Value()
	for k := Kind(0); k < NumKinds; k++ {
		rep.Injected[k] = inj.Injected(k)
	}

	// Journal scan: no throttle decision may rest on data older than
	// the staleness horizon, and if fail-safe was entered it must have
	// been left within the convergence budget.
	horizon := daemon.Config().StalenessHorizon
	deadline := rep.ClearTime + time.Duration(cfg.ConvergeQuanta)*pollPeriod
	var lastRecovery time.Duration
	for _, e := range journal.Entries() {
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
				lastRecovery, deadline, rep.ClearTime, cfg.ConvergeQuanta)
		}
	}

	// Teardown before the physics audit: the step trace must be
	// complete and the engine stopped before final state is read.
	daemon.Stop()
	sup.Stop()
	rt.Shutdown()
	watchdog.Stop()
	m.Stop()
	m.MSR().SetReadHook(nil) // final-state reads below must be raw
	if merr := m.Err(); merr != nil && runErr == nil {
		rep.violate("machine error: %v", merr)
	}

	rep.Steps = len(steps)
	res := &refmodel.Result{Steps: steps}
	file := m.MSR()
	for s := 0; s < mcfg.Sockets; s++ {
		res.Energy = append(res.Energy, float64(m.SocketEnergy(s)))
		res.Counters = append(res.Counters, file.PackageEnergyCounter(s))
	}
	for c := 0; c < mcfg.Cores(); c++ {
		tsc, err := file.ReadCore(c, msr.IA32TimeStampCounter)
		if err != nil {
			return nil, err
		}
		res.TSC = append(res.TSC, tsc)
		th, err := file.ReadCore(c, msr.IA32ThermStatus)
		if err != nil {
			return nil, err
		}
		res.Therm = append(res.Therm, th)
	}
	if err := refmodel.Audit(refmodel.Scenario{Cfg: mcfg}, res); err != nil {
		rep.violate("physics audit failed: %v", err)
	}
	return rep, nil
}

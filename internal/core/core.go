// Package core is the library's public facade: it assembles the full
// stack of the paper's system — simulated Sandybridge node (or any
// machine.Config), RAPL energy counters, the RCR measurement daemon, the
// Qthreads-style task runtime, and optionally the MAESTRO adaptive
// concurrency-throttling daemon — behind one System type.
//
// Typical use:
//
//	sys, err := core.New(core.Options{AdaptiveThrottling: true})
//	defer sys.Close()
//	report, err := sys.Run("my-kernel", func(tc *qthreads.TC) {
//	    tc.ParallelFor(n, 0, func(tc *qthreads.TC, lo, hi int) { ... })
//	})
//	fmt.Println(report) // elapsed, Joules, Watts, per-socket temps
package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/machine"
	"repro/internal/maestro"
	"repro/internal/qthreads"
	"repro/internal/rapl"
	"repro/internal/rcr"
	"repro/internal/resilience"
	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/internal/workloads"
)

// Options configure a System. The zero value is a 16-worker M620 with
// measurement only (no throttling).
type Options struct {
	// Machine is the simulated node; zero value selects the paper's
	// M620 preset.
	Machine machine.Config
	// Workers is the task-runtime worker count; zero means all cores.
	Workers int
	// Qthreads tunes the runtime beyond the worker count; zero values
	// take the runtime defaults. Workers above overrides Qthreads.Workers.
	Qthreads qthreads.Config
	// SamplePeriod is the RCR blackboard refresh interval; zero selects
	// the default (10 ms of virtual time).
	SamplePeriod time.Duration
	// FaultTolerant hardens the measurement path (docs/robustness.md):
	// the RAPL reader is wrapped in a rapl.Guard (per-domain retry,
	// bounded-backoff quarantine, plausibility clamp), and the sampler
	// runs under an rcr.Supervisor that restarts it if it dies or wedges.
	// The MAESTRO staleness watchdog is always on regardless (it defaults
	// to 3× the poll period); this option adds the sensing-side armor.
	FaultTolerant bool
	// AdaptiveThrottling starts the MAESTRO daemon (paper §IV).
	AdaptiveThrottling bool
	// Maestro tunes the daemon when AdaptiveThrottling is set.
	Maestro maestro.Config
	// PowerCap, when positive, starts a power-capping controller holding
	// node power at or below the bound (the §V/§VI outlook: concurrency
	// throttling under a power budget). Mutually exclusive with
	// AdaptiveThrottling — both would fight over the throttle limit.
	PowerCap units.Watts
	// RecordHistory keeps a time series of power / memory-concurrency /
	// temperature samples, readable via History.
	RecordHistory bool
	// Warm pre-heats the machine to the paper's warm-system operating
	// point. Experiments that care about the cold-start effect leave it
	// false and manage temperature explicitly.
	Warm bool
	// Telemetry instruments the whole stack — blackboard, sampler, task
	// runtime, and the MAESTRO daemon or power-cap controller — into one
	// registry, and attaches a decision journal to the daemon. True
	// creates the registry and journal internally (read them back via
	// Telemetry/Journal); to publish into an existing registry set
	// Qthreads.Telemetry / Maestro.Telemetry / Maestro.Journal yourself
	// and leave this false.
	Telemetry bool
}

// System is a ready-to-run instance of the paper's full stack.
type System struct {
	m       *machine.Machine
	reader  rapl.Reader
	guard   *rapl.Guard
	bb      *rcr.Blackboard
	sampler *rcr.Sampler
	sup     *rcr.Supervisor
	rt      *qthreads.Runtime
	daemon  *maestro.Daemon
	cap     *maestro.PowerCap
	history *rcr.History
	reg     *telemetry.Registry
	journal *telemetry.Journal
	closed  bool
}

// New builds and starts a System.
func New(opts Options) (*System, error) {
	sys, _, err := assemble(opts, false)
	return sys, err
}

// NewHeld is New with the machine's clock parked (machine.Hold) from
// before the first ticker registers: the whole stack is assembled at
// virtual time zero whatever the host scheduler does meanwhile, and
// whatever the caller adds before calling release — more tickers, a
// fence guard, a first Runtime.RunHeld, which takes release as its
// argument — starts on the same instant. A run that begins this way is a
// pure function of its inputs from its first sample on.
func NewHeld(opts Options) (sys *System, release func(), err error) {
	return assemble(opts, true)
}

// assemble builds the stack; with held set the clock is parked throughout
// and the returned release starts it (otherwise release does nothing).
func assemble(opts Options, held bool) (*System, func(), error) {
	mcfg := opts.Machine
	if mcfg.Sockets == 0 {
		mcfg = machine.M620()
	}
	m, err := machine.New(mcfg)
	if err != nil {
		return nil, nil, err
	}
	release := func() {}
	if held {
		release = m.Hold()
	}
	sys := &System{m: m}
	fail := func(err error) (*System, func(), error) {
		sys.Close()
		return nil, nil, err
	}
	if opts.Warm {
		m.WarmAll(workloads.WarmTemp)
	}
	if opts.Telemetry {
		// The registry exists before the guard and sampler so their
		// instruments are registered from the first read.
		sys.reg = telemetry.NewRegistry()
		sys.journal = telemetry.NewJournal(0, mcfg.Sockets)
		opts.Qthreads.Telemetry = sys.reg
		opts.Maestro.Telemetry = sys.reg
		opts.Maestro.Journal = sys.journal
	}
	msrReader, err := rapl.NewMSRReader(m.MSR())
	if err != nil {
		return fail(err)
	}
	sys.reader = msrReader
	if opts.FaultTolerant {
		// The sampler calls the guard with the machine lock released, so
		// virtual time is a safe backoff clock here.
		if sys.guard, err = rapl.NewGuard(msrReader, rapl.GuardConfig{Clock: m.Now, Telemetry: sys.reg}); err != nil {
			return fail(err)
		}
		sys.reader = sys.guard
	}
	if sys.bb, err = rcr.NewBlackboard(mcfg.Sockets, mcfg.CoresPerSocket); err != nil {
		return fail(err)
	}
	if opts.FaultTolerant {
		if sys.sup, err = rcr.StartSupervisor(m, sys.reader, sys.bb, rcr.SupervisorConfig{
			SamplePeriod: opts.SamplePeriod,
			Telemetry:    sys.reg,
		}); err != nil {
			return fail(err)
		}
	} else {
		if sys.sampler, err = rcr.StartSampler(m, sys.reader, sys.bb, opts.SamplePeriod); err != nil {
			return fail(err)
		}
		sys.sampler.Instrument(sys.reg) // no-op when reg is nil
	}
	if sys.reg != nil {
		sys.bb.Instrument(sys.reg)
	}
	qcfg := opts.Qthreads
	if qcfg.SpawnCost == 0 && qcfg.DequeueCost == 0 && qcfg.StealCost == 0 {
		base := qthreads.DefaultConfig()
		base.Workers = qcfg.Workers
		base.SpinOnlyIdle = qcfg.SpinOnlyIdle
		base.Pinning = qcfg.Pinning
		base.Telemetry = qcfg.Telemetry
		qcfg = base
	}
	if opts.Workers != 0 {
		qcfg.Workers = opts.Workers
	}
	if sys.rt, err = qthreads.New(m, qcfg); err != nil {
		return fail(err)
	}
	if opts.AdaptiveThrottling && opts.PowerCap > 0 {
		return fail(errors.New("core: AdaptiveThrottling and PowerCap are mutually exclusive"))
	}
	if opts.AdaptiveThrottling {
		if sys.daemon, err = maestro.Start(sys.rt, sys.bb, opts.Maestro); err != nil {
			return fail(err)
		}
	}
	if opts.PowerCap > 0 {
		if sys.cap, err = maestro.StartPowerCap(sys.rt, sys.bb, opts.PowerCap, 0); err != nil {
			return fail(err)
		}
		sys.cap.Instrument(sys.reg) // no-op when reg is nil
	}
	if opts.RecordHistory {
		if sys.history, err = rcr.StartHistory(m, sys.bb, opts.SamplePeriod, 0); err != nil {
			return fail(err)
		}
	}
	return sys, release, nil
}

// Machine returns the underlying simulated node.
func (s *System) Machine() *machine.Machine { return s.m }

// Runtime returns the task runtime.
func (s *System) Runtime() *qthreads.Runtime { return s.rt }

// Blackboard returns the RCR measurement blackboard.
func (s *System) Blackboard() *rcr.Blackboard { return s.bb }

// Reader returns the RAPL energy reader the stack measures through —
// the fault-containment Guard when FaultTolerant is set.
func (s *System) Reader() rapl.Reader { return s.reader }

// Guard returns the RAPL fault-containment wrapper, or nil when
// FaultTolerant was not set.
func (s *System) Guard() *rapl.Guard { return s.guard }

// Supervisor returns the sampler supervisor, or nil when FaultTolerant
// was not set.
func (s *System) Supervisor() *rcr.Supervisor { return s.sup }

// Throttling reports whether adaptive throttling is installed and its
// statistics so far.
func (s *System) Throttling() (maestro.Stats, bool) {
	if s.daemon == nil {
		return maestro.Stats{}, false
	}
	return s.daemon.Stats(), true
}

// PowerCapController returns the power-capping controller, or nil when
// Options.PowerCap was not set. Cluster-tier budget partitioners
// (internal/cluster) use it to retune the node's bound live via SetCap.
func (s *System) PowerCapController() *maestro.PowerCap { return s.cap }

// Capping reports whether a power cap is installed and its statistics so
// far.
func (s *System) Capping() (maestro.CapStats, bool) {
	if s.cap == nil {
		return maestro.CapStats{}, false
	}
	return s.cap.Stats(), true
}

// History returns the recorded measurement time series, or nil when
// RecordHistory was not set.
func (s *System) History() *rcr.History { return s.history }

// AttachPublisher wires a delta publisher into the sampling path so
// every sampler tick also fans frames out to subscribers. Under
// FaultTolerant the attachment goes through the supervisor and survives
// sampler restarts.
func (s *System) AttachPublisher(p *rcr.Publisher) {
	if s.sup != nil {
		s.sup.AttachPublisher(p)
		return
	}
	if s.sampler != nil {
		s.sampler.AttachPublisher(p)
	}
}

// Telemetry returns the stack-wide metrics registry, or nil when
// Options.Telemetry was not set.
func (s *System) Telemetry() *telemetry.Registry { return s.reg }

// Journal returns the MAESTRO decision journal, or nil when
// Options.Telemetry was not set. It only fills while AdaptiveThrottling
// is enabled — the journal records classifications, and only the daemon
// classifies.
func (s *System) Journal() *telemetry.Journal { return s.journal }

// Checkpoint captures the crash-safe daemon state (internal/resilience):
// the RAPL guard's fail-safe machine and the recorded history timeline.
// The keeper stamps the wall-clock save instant itself.
func (s *System) Checkpoint() resilience.DaemonState {
	st := resilience.DaemonState{VirtualNow: s.m.Now()}
	if s.guard != nil {
		st.Guard = s.guard.Checkpoint()
	}
	if s.history != nil {
		st.History = s.history.Points()
	}
	return st
}

// RestoreCheckpoint installs a previously saved daemon state: quarantined
// RAPL domains stay quarantined (a restart is not evidence the hardware
// healed) and the history ring resumes its timeline. Components the
// system was built without (no guard, no history) silently skip their
// part, so a state file from a differently-configured run degrades
// instead of failing.
func (s *System) RestoreCheckpoint(st resilience.DaemonState) {
	if s.guard != nil && len(st.Guard) > 0 {
		s.guard.Restore(st.Guard)
	}
	if s.history != nil && len(st.History) > 0 {
		s.history.Restore(st.History)
	}
}

// Run executes task as a root task on the runtime, measured as an RCR
// region.
func (s *System) Run(name string, task qthreads.Task) (rcr.RegionReport, error) {
	if s.closed {
		return rcr.RegionReport{}, errors.New("core: system is closed")
	}
	region, err := rcr.StartRegion(name, s.m, s.reader, s.bb)
	if err != nil {
		return rcr.RegionReport{}, err
	}
	if err := s.rt.Run(task); err != nil {
		return rcr.RegionReport{}, fmt.Errorf("core: running %q: %w", name, err)
	}
	return region.End()
}

// RunWorkload prepares nothing — the workload must already be Prepared —
// and runs it measured and validated.
func (s *System) RunWorkload(wl workloads.Workload) (rcr.RegionReport, error) {
	if s.closed {
		return rcr.RegionReport{}, errors.New("core: system is closed")
	}
	return workloads.RunOnRuntime(s.rt, s.reader, s.bb, wl)
}

// Power returns the most recently sampled node power.
func (s *System) Power() units.Watts {
	total := 0.0
	for d := 0; d < s.bb.Sockets(); d++ {
		if m, ok := s.bb.Socket(d, rcr.MeterPower); ok {
			total += m.Value
		}
	}
	return units.Watts(total)
}

// Close tears the stack down in dependency order. It is idempotent.
func (s *System) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.history != nil {
		s.history.Stop()
	}
	if s.cap != nil {
		s.cap.Stop()
	}
	if s.daemon != nil {
		s.daemon.Stop()
	}
	if s.rt != nil {
		s.rt.Shutdown()
	}
	if s.sup != nil {
		s.sup.Stop()
	}
	if s.sampler != nil {
		s.sampler.Stop()
	}
	if s.m != nil {
		s.m.Stop()
	}
}

// Package core is the library's public facade: it assembles the full
// stack of the paper's system — simulated Sandybridge node (or any
// machine.Config), RAPL energy counters, the RCR measurement daemon, the
// Qthreads-style task runtime, and optionally the MAESTRO adaptive
// concurrency-throttling daemon — behind one System type. Every System
// is the hardened node rcrd serves: RAPL reads go through a rapl.Guard
// and the sampler restarts itself when it dies or wedges.
//
// Typical use:
//
//	sys, err := core.New(core.Options{AdaptiveThrottling: true})
//	defer sys.Close()
//	report, err := sys.Run("my-kernel", func(tc *qthreads.TC) {
//	    tc.ParallelFor(n, 0, func(tc *qthreads.TC, lo, hi int) { ... })
//	})
//	fmt.Println(report) // elapsed, Joules, Watts, per-socket temps
//
// The System owns its machine's clock. New assembles the stack with the
// clock parked at virtual time zero; every Run and RunWorkload starts at
// the instant the clock is parked on and returns with it parked at the
// run's completion, so runs chain back to back and whatever the host
// does between them — closing a region, writing a CSV, preparing the
// next input — costs no virtual time. Only Idle lets the clock run with
// nothing scheduled. A run is therefore a pure function of its options
// and inputs, samples and all.
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
	// Qthreads tunes the runtime beyond the worker count. Workers above
	// overrides Qthreads.Workers.
	Qthreads qthreads.Config
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

// System is a ready-to-run instance of the paper's full stack. Run,
// RunWorkload and Idle move its one clock, so they are called one at a
// time.
type System struct {
	m       *machine.Machine
	guard   *rapl.Guard
	bb      *rcr.Blackboard
	sampler *rcr.Sampler
	rt      *qthreads.Runtime
	daemon  *maestro.Daemon
	cap     *maestro.PowerCap
	history *rcr.History
	reg     *telemetry.Registry
	journal *telemetry.Journal
	closed  bool
	// release lets the parked clock go: the hold New took, or the one the
	// last Run or Idle re-took at its end; a no-op while Idle(0) has the
	// clock running.
	release func()
}

// New builds the stack with its clock parked at virtual time zero
// (machine.Hold) from before the first ticker registers: whatever the
// host scheduler does meanwhile, and whatever the caller adds before the
// first Run — more tickers, a fence guard, a publisher — starts on the
// same instant.
func New(opts Options) (*System, error) {
	mcfg := opts.Machine
	if mcfg.Sockets == 0 {
		mcfg = machine.M620()
	}
	m, err := machine.New(mcfg)
	if err != nil {
		return nil, err
	}
	sys := &System{m: m, release: m.Hold()}
	fail := func(err error) (*System, error) {
		sys.Close()
		return nil, err
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
	// The sampler calls the guard with the machine lock released, so
	// virtual time is a safe backoff clock here.
	if sys.guard, err = rapl.NewGuard(msrReader, rapl.GuardConfig{Clock: m.Now, Telemetry: sys.reg}); err != nil {
		return fail(err)
	}
	if sys.bb, err = rcr.NewBlackboard(mcfg.Sockets, mcfg.CoresPerSocket); err != nil {
		return fail(err)
	}
	if sys.sampler, err = rcr.StartSampler(m, sys.guard, sys.bb); err != nil {
		return fail(err)
	}
	sys.sampler.Instrument(sys.reg)
	sys.bb.Instrument(sys.reg)
	qcfg := opts.Qthreads
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
		if sys.cap, err = maestro.StartPowerCap(sys.rt, sys.bb, opts.PowerCap); err != nil {
			return fail(err)
		}
		sys.cap.Instrument(sys.reg)
	}
	if opts.RecordHistory {
		if sys.history, err = rcr.StartHistory(m, sys.bb); err != nil {
			return fail(err)
		}
	}
	return sys, nil
}

// Machine returns the underlying simulated node.
func (s *System) Machine() *machine.Machine { return s.m }

// Runtime returns the task runtime.
func (s *System) Runtime() *qthreads.Runtime { return s.rt }

// Blackboard returns the RCR measurement blackboard.
func (s *System) Blackboard() *rcr.Blackboard { return s.bb }

// Guard returns the RAPL fault-containment wrapper every measurement
// reads through.
func (s *System) Guard() *rapl.Guard { return s.guard }

// Sampler returns the RCR sampler that fills the blackboard.
func (s *System) Sampler() *rcr.Sampler { return s.sampler }

// Daemon returns the MAESTRO daemon, or nil when AdaptiveThrottling was
// not set.
func (s *System) Daemon() *maestro.Daemon { return s.daemon }

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
// every sampler tick also fans frames out to subscribers. The attachment
// survives sampler restarts.
func (s *System) AttachPublisher(p *rcr.Publisher) { s.sampler.AttachPublisher(p) }

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
	st := resilience.DaemonState{VirtualNow: s.m.Now(), Guard: s.guard.Checkpoint()}
	if s.history != nil {
		st.History = s.history.Points()
	}
	return st
}

// RestoreCheckpoint installs a previously saved daemon state: quarantined
// RAPL domains stay quarantined (a restart is not evidence the hardware
// healed) and the history ring resumes its timeline. A system built
// without history, or a state without a part, skips that part, so a
// state file from a differently-configured run degrades instead of
// failing.
func (s *System) RestoreCheckpoint(st resilience.DaemonState) {
	if len(st.Guard) > 0 {
		s.guard.Restore(st.Guard)
	}
	if s.history != nil && len(st.History) > 0 {
		s.history.Restore(st.History)
	}
}

// Run executes task as a root task on the runtime, measured as an RCR
// region.
func (s *System) Run(name string, task qthreads.Task) (rcr.RegionReport, error) {
	return s.RunWorkload(rootTask{name, task})
}

// RunWorkload prepares nothing — the workload must already be Prepared —
// and runs it measured and validated. The run starts at the instant the
// clock is parked on and returns with the clock parked at its
// completion.
func (s *System) RunWorkload(wl workloads.Prepared) (rcr.RegionReport, error) {
	if s.closed {
		return rcr.RegionReport{}, errors.New("core: system is closed")
	}
	rep, end, err := workloads.RunOnRuntimeHeld(s.rt, s.guard, s.bb, wl, s.release)
	s.release = end
	return rep, err
}

// rootTask is a bare root task as a prepared workload: nothing to
// validate.
type rootTask struct {
	name string
	fn   qthreads.Task
}

func (r rootTask) Name() string        { return r.name }
func (r rootTask) Root() qthreads.Task { return r.fn }
func (rootTask) Validate() error       { return nil }

// Idle lets the parked clock run with nothing scheduled: the workers stay
// idle while the sampler, the daemon or cap controller and the history
// keep ticking. With d > 0 it returns once d of virtual time has passed,
// with the clock parked there again; the machine must not be stopped
// meanwhile, and a d that would pass Machine.VirtualTimeLimit is an
// error. With d <= 0 it returns at once and leaves the clock running,
// as fast as the host steps it, until the next Run or Idle parks it —
// wherever it has got to by then.
func (s *System) Idle(d time.Duration) error {
	if s.closed {
		return errors.New("core: system is closed")
	}
	if d <= 0 {
		s.release()
		s.release = func() {}
		return nil
	}
	if limit := s.m.Config().VirtualTimeLimit; limit > 0 && s.m.Now()+d > limit {
		// The watchdog would stop the machine before the clock got there.
		return fmt.Errorf("core: idling %v would pass the virtual time limit %v", d, limit)
	}
	// The first fire parks the clock, so the ticker cannot fire again
	// before it is removed.
	parked := make(chan func(), 1)
	id, err := s.m.AddTicker(d, func(time.Duration, *machine.Snapshot) { parked <- s.m.Hold() })
	if err != nil {
		return err
	}
	s.release()
	s.release = <-parked
	s.m.RemoveTicker(id)
	return nil
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
	if s.sampler != nil {
		s.sampler.Stop()
	}
	if s.m != nil {
		s.m.Stop()
	}
}

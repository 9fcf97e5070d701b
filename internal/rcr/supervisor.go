package rcr

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/machine"
	"repro/internal/rapl"
	"repro/internal/telemetry"
)

// SupervisorConfig tunes a sampler supervisor.
type SupervisorConfig struct {
	// SamplePeriod is the period of the supervised sampler (also used
	// for restarts). Zero selects DefaultSamplePeriod.
	SamplePeriod time.Duration
	// CheckPeriod is how often the supervisor inspects the heartbeat.
	// Zero selects 3× SamplePeriod.
	CheckPeriod time.Duration
	// StaleAfter is the heartbeat age that declares the sampler dead or
	// wedged and triggers a restart. Zero selects 2× CheckPeriod.
	StaleAfter time.Duration
	// Telemetry, when non-nil, instruments the supervisor and every
	// sampler incarnation it starts.
	Telemetry *telemetry.Registry
}

// supervisorMetrics is the supervisor's instrument set.
type supervisorMetrics struct {
	checks   *telemetry.Counter
	restarts *telemetry.Counter
	failures *telemetry.Counter // restart attempts that failed
}

// Supervisor owns a sampler's lifecycle, standing in for the init system
// that keeps the real rcrd running: it watches the blackboard heartbeat
// and, when the sampler has crashed or wedged (heartbeat stale), stops
// the old incarnation and starts a fresh one. StartSampler reseeds the
// energy baselines from the counters, so the restarted sampler resumes
// publishing sane power figures instead of booking the outage's energy
// into its first window.
type Supervisor struct {
	m      *machine.Machine
	reader rapl.Reader
	bb     *Blackboard
	cfg    SupervisorConfig

	tickerID int
	restarts atomic.Uint64
	met      *supervisorMetrics

	mu        sync.Mutex
	sampler   *Sampler
	tickGate  TickGate
	meterGate MeterGate
	pub       *Publisher
	stopped   bool
}

// StartSupervisor starts a sampler under supervision. The returned
// Supervisor's Stop tears down both the watchdog and the sampler.
func StartSupervisor(m *machine.Machine, reader rapl.Reader, bb *Blackboard, cfg SupervisorConfig) (*Supervisor, error) {
	if cfg.SamplePeriod <= 0 {
		cfg.SamplePeriod = DefaultSamplePeriod
	}
	if cfg.CheckPeriod <= 0 {
		cfg.CheckPeriod = 3 * cfg.SamplePeriod
	}
	if cfg.StaleAfter <= 0 {
		cfg.StaleAfter = 2 * cfg.CheckPeriod
	}
	reg := cfg.Telemetry
	sup := &Supervisor{m: m, reader: reader, bb: bb, cfg: cfg, met: &supervisorMetrics{
		checks:   reg.Counter("rcr_supervisor_checks_total"),
		restarts: reg.Counter("rcr_supervisor_restarts_total"),
		failures: reg.Counter("rcr_supervisor_restart_failures_total"),
	}}
	s, err := StartSampler(m, reader, bb, cfg.SamplePeriod)
	if err != nil {
		return nil, err
	}
	s.Instrument(cfg.Telemetry)
	sup.sampler = s
	id, err := m.AddTicker(cfg.CheckPeriod, sup.check)
	if err != nil {
		s.Stop()
		return nil, err
	}
	sup.tickerID = id
	return sup, nil
}

// SetFaultGates installs fault gates on the current sampler and every
// future incarnation — a restarted sampler stays inside the same fault
// schedule, so a crash window that is still open kills it again.
func (sup *Supervisor) SetFaultGates(tick TickGate, meter MeterGate) {
	sup.mu.Lock()
	defer sup.mu.Unlock()
	sup.tickGate, sup.meterGate = tick, meter
	sup.sampler.SetFaultGates(tick, meter)
}

// AttachPublisher attaches p to the current sampler and every future
// incarnation, so a supervised restart keeps the push stream ticking
// instead of silently starving subscribers.
func (sup *Supervisor) AttachPublisher(p *Publisher) {
	sup.mu.Lock()
	defer sup.mu.Unlock()
	sup.pub = p
	sup.sampler.AttachPublisher(p)
}

// Sampler returns the current sampler incarnation.
func (sup *Supervisor) Sampler() *Sampler {
	sup.mu.Lock()
	defer sup.mu.Unlock()
	return sup.sampler
}

// Restarts returns how many times the supervisor has restarted the
// sampler.
func (sup *Supervisor) Restarts() uint64 { return sup.restarts.Load() }

// Stop halts the watchdog and the sampler.
func (sup *Supervisor) Stop() {
	sup.m.RemoveTicker(sup.tickerID)
	sup.mu.Lock()
	defer sup.mu.Unlock()
	sup.stopped = true
	sup.sampler.Stop()
}

// check runs on the machine's stepper every CheckPeriod
// (machine.TickerFunc: one at a time, never beside an owner; it must not
// block, charge or Stop): a sampler that reports dead, or whose heartbeat
// has not moved for StaleAfter, is replaced.
func (sup *Supervisor) check(now time.Duration, _ *machine.Snapshot) {
	sup.met.checks.Inc()
	sup.mu.Lock()
	defer sup.mu.Unlock()
	if sup.stopped {
		return
	}
	healthy := sup.sampler.Alive()
	if healthy {
		hb, ok := sup.bb.System(MeterHeartbeat)
		switch {
		case ok:
			healthy = now-hb.Updated <= sup.cfg.StaleAfter
		default:
			// No heartbeat yet: grant a startup grace window.
			healthy = now <= sup.cfg.StaleAfter
		}
	}
	if healthy {
		return
	}
	sup.sampler.Stop()
	s, err := StartSampler(sup.m, sup.reader, sup.bb, sup.cfg.SamplePeriod)
	if err != nil {
		// Retry at the next check; the dead sampler stays in place so
		// accessors keep working.
		sup.met.failures.Inc()
		return
	}
	s.Instrument(sup.cfg.Telemetry)
	s.SetFaultGates(sup.tickGate, sup.meterGate)
	if sup.pub != nil {
		s.AttachPublisher(sup.pub)
	}
	sup.sampler = s
	sup.restarts.Add(1)
	sup.met.restarts.Inc()
}

package rcr

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/machine"
	"repro/internal/rapl"
	"repro/internal/telemetry"
)

// SamplePeriod is how often the sampler refreshes the blackboard.
// The real RCRdaemon updates its shared-memory region at a similar rate;
// consumers like the MAESTRO throttle daemon poll less often (0.1 s) to
// smooth jitter (paper §IV).
const SamplePeriod = 10 * time.Millisecond

// samplerMetrics is the sampler's instrument set, installed atomically
// by Instrument so publishing can begin while ticks are in flight.
// StartSampler seeds an empty set, so a loaded set is never nil.
type samplerMetrics struct {
	ticks      *telemetry.Counter
	readErrors *telemetry.Counter
	missed     *telemetry.Counter   // windows skipped by an injected stall
	drops      *telemetry.Counter   // meter publishes suppressed (torn rows)
	deaths     *telemetry.Counter   // injected sampler crashes
	tickNS     *telemetry.Histogram // host nanoseconds per sample tick
	checks     *telemetry.Counter   // watchdog heartbeat inspections
	restarts   *telemetry.Counter   // dead or wedged incarnations replaced
	failures   *telemetry.Counter   // replacements whose ticker failed to register
}

// TickAction tells the sampler what to do with one of its ticks; it is
// the return value of an installed TickGate.
type TickAction int

// Tick actions.
const (
	// TickRun samples normally.
	TickRun TickAction = iota
	// TickSkip misses this window: nothing is published, meters age.
	TickSkip
	// TickDie crashes the sampler: it unregisters its ticker and goes
	// dead, as if the measurement daemon segfaulted. Only the sampler's
	// watchdog, which replaces the dead incarnation, brings sampling back.
	TickDie
)

// TickGate decides the fate of a sample tick at virtual time now, and
// MeterGate decides whether one socket-meter publish goes through
// (false suppresses it, modeling a torn row). Both are fault-injection
// seams (internal/faults); the signatures are primitive so this package
// carries no dependency on the injector. Gates run on the machine's
// stepper inside the sample tick (machine.TickerFunc) and must not block
// or call into the machine.
type (
	TickGate  func(now time.Duration) TickAction
	MeterGate func(now time.Duration, socket int, meter string) bool
)

// samplerGates pairs the two gates for atomic installation.
type samplerGates struct {
	tick  TickGate
	meter MeterGate
}

// Sampler periodically reads the RAPL counters and the machine's uncore
// metrics into a blackboard. It is driven by the simulated machine's
// virtual-time ticker, so samples land at exact virtual instants. A tick
// is one write on the blackboard: the sampler looks its meters up once,
// at its first tick, and publishes each tick's meters under one lock
// with one publish version.
//
// A watchdog ticker, standing in for the init system that keeps the real
// rcrd running, replaces the sampling incarnation when it has crashed or
// wedged (docs/robustness.md). A new incarnation restarts the heartbeat
// count, reseeds the energy baselines from the counters, so it does not
// book the outage's energy into its first window, and gets a new sample
// ticker. Gates, publisher and instruments belong to the Sampler and
// carry over to every incarnation.
type Sampler struct {
	m       *machine.Machine
	reader  rapl.Reader
	bb      *Blackboard
	watchID int

	met      atomic.Pointer[samplerMetrics]
	gates    atomic.Pointer[samplerGates]
	pub      atomic.Pointer[Publisher]
	restarts atomic.Uint64

	// mu guards the current incarnation's ticker between the watchdog,
	// a dying sample tick and Stop.
	mu       sync.Mutex
	tickerID int
	stopped  bool

	// The current incarnation. dead is read from any goroutine; ticks
	// and the baselines are touched only on the stepper, or in
	// StartSampler before the first ticker is registered. Baselines are
	// per-domain so a domain whose counter read fails resynchronizes
	// over its own window instead of borrowing a neighbour's.
	dead       atomic.Bool
	ticks      atomic.Uint64 // completed (non-skipped) sample ticks
	lastEnergy []float64
	lastTime   []time.Duration
	haveBase   []bool

	// The sampler's slots on bb, resolved at its first tick, and the
	// writes of the tick in progress; touched only on the stepper.
	sockSlots [][len(socketMeters)]*slot
	sysSlots  [len(systemMeters)]*slot
	writes    []slotWrite
}

// The meters a tick writes, per socket and at system scope. The index
// constants name their places; resolving socket meters before system
// ones registers the names in the order the first tick writes them.
var (
	socketMeters = [...]string{MeterEnergy, MeterPower, MeterMemBandwidth, MeterMemConcurrency, MeterTemperature}
	systemMeters = [...]string{MeterEnergy, MeterPower, MeterHeartbeat}
)

const (
	meterEnergy = iota // socket and system
	meterPower         // socket and system
	meterMemBandwidth
	meterMemConcurrency
	meterTemperature
	meterHeartbeat = 2 // system
)

// Watchdog multiples of the sample period: the check cadence, and the
// heartbeat age (or, before the first heartbeat, the time since zero)
// past which an incarnation counts as wedged.
const (
	watchPeriods = 3
	stalePeriods = 6
)

// StartSampler registers a sampler and its watchdog on the machine and
// returns it. The blackboard is updated every SamplePeriod of
// virtual time until Stop.
//
// The energy baseline is seeded from the counters before the first tick,
// so the first sample window already publishes a power meter: consumers
// polling the blackboard during the first period see real data instead
// of a zero-valued "idle" node (they previously had to wait out two
// periods for the first derivative).
func StartSampler(m *machine.Machine, reader rapl.Reader, bb *Blackboard) (*Sampler, error) {
	if reader.Domains() != m.Config().Sockets {
		return nil, fmt.Errorf("rcr: reader has %d domains, machine has %d sockets", reader.Domains(), m.Config().Sockets)
	}
	if bb.Sockets() != m.Config().Sockets || bb.Cores() != m.Config().Cores() {
		return nil, fmt.Errorf("rcr: blackboard topology %d/%d does not match machine %d/%d",
			bb.Sockets(), bb.Cores(), m.Config().Sockets, m.Config().Cores())
	}
	s := &Sampler{
		m:          m,
		reader:     reader,
		bb:         bb,
		lastEnergy: make([]float64, reader.Domains()),
		lastTime:   make([]time.Duration, reader.Domains()),
		haveBase:   make([]bool, reader.Domains()),
	}
	s.met.Store(&samplerMetrics{})
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.begin(); err != nil {
		return nil, err
	}
	id, err := m.AddTicker(watchPeriods*SamplePeriod, s.watch)
	if err != nil {
		m.RemoveTicker(s.tickerID)
		return nil, err
	}
	s.watchID = id
	return s, nil
}

// begin starts a sampling incarnation: a fresh heartbeat count, baselines
// seeded from the counters and a new sample ticker. s.mu must be held.
func (s *Sampler) begin() error {
	s.ticks.Store(0)
	// Seed per-domain baselines; a domain whose read fails here starts
	// publishing power one window later.
	start := s.m.Now()
	for d := range s.haveBase {
		e, err := s.reader.Energy(d)
		s.lastEnergy[d], s.lastTime[d], s.haveBase[d] = float64(e), start, err == nil
	}
	id, err := s.m.AddTicker(SamplePeriod, s.sample)
	if err != nil {
		s.dead.Store(true)
		return err
	}
	s.tickerID = id
	s.dead.Store(false)
	return nil
}

// Instrument registers the sampler's tick/error counters, tick latency
// histogram and watchdog counters in reg. Safe to call while sampling is
// in flight.
func (s *Sampler) Instrument(reg *telemetry.Registry) {
	s.met.Store(&samplerMetrics{
		ticks:      reg.Counter("rcr_sampler_ticks_total"),
		readErrors: reg.Counter("rcr_sampler_read_errors_total"),
		missed:     reg.Counter("rcr_sampler_missed_windows_total"),
		drops:      reg.Counter("rcr_sampler_dropped_publishes_total"),
		deaths:     reg.Counter("rcr_sampler_deaths_total"),
		// Host-side cost of one sample tick: 250 ns to 1 ms.
		tickNS:   reg.Histogram("rcr_sampler_tick_ns", 250, 1000, 4000, 16000, 64000, 250000, 1e6),
		checks:   reg.Counter("rcr_supervisor_checks_total"),
		restarts: reg.Counter("rcr_supervisor_restarts_total"),
		failures: reg.Counter("rcr_supervisor_restart_failures_total"),
	})
}

// SetFaultGates installs (or, with nils, removes) the sampler's fault
// gates. Safe to call while sampling is in flight. A replacement
// incarnation stays inside the same fault schedule, so a crash window
// that is still open kills it again.
func (s *Sampler) SetFaultGates(tick TickGate, meter MeterGate) {
	if tick == nil && meter == nil {
		s.gates.Store(nil)
		return
	}
	s.gates.Store(&samplerGates{tick: tick, meter: meter})
}

// AttachPublisher makes the sampler drive p.Tick at the end of every
// completed sample tick, so subscribers receive exactly one frame per
// sampler window — the pub/sub cadence the paper's shared-memory pollers
// observe. Tick never blocks (bounded queues, non-blocking enqueues), so
// this is safe from the machine's stepper. Pass nil to detach.
func (s *Sampler) AttachPublisher(p *Publisher) { s.pub.Store(p) }

// Alive reports whether the current incarnation is still ticking (false
// after an injected crash, until the watchdog replaces it).
func (s *Sampler) Alive() bool { return !s.dead.Load() }

// Restarts returns how many times the watchdog has replaced the sampling
// incarnation.
func (s *Sampler) Restarts() uint64 { return s.restarts.Load() }

// Stop unregisters the watchdog and the sampler's ticker.
func (s *Sampler) Stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stopped = true
	s.m.RemoveTicker(s.watchID)
	s.m.RemoveTicker(s.tickerID)
}

// watch runs on the machine's stepper every watchPeriods sample periods
// (machine.TickerFunc: one at a time, never beside an owner; it must not
// block, charge or Stop): an incarnation that is dead, or whose heartbeat
// is older than stalePeriods (before the first heartbeat: more than
// stalePeriods since time zero), is replaced. A replacement that fails to
// register is retried at the next check.
func (s *Sampler) watch(now time.Duration, _ *machine.Snapshot) {
	met := s.met.Load()
	met.checks.Inc()
	s.mu.Lock()
	defer s.mu.Unlock()
	const stale = stalePeriods * SamplePeriod
	hb, ok := s.bb.System(MeterHeartbeat)
	if s.stopped || s.Alive() && (ok && now-hb.Updated <= stale || !ok && now <= stale) {
		return
	}
	s.m.RemoveTicker(s.tickerID)
	if err := s.begin(); err != nil {
		met.failures.Inc()
		return
	}
	s.restarts.Add(1)
	met.restarts.Inc()
}

// sample runs on the machine's stepper at each period (machine.TickerFunc):
// one at a time, never beside an owner; it must not block, charge or Stop.
func (s *Sampler) sample(now time.Duration, snap *machine.Snapshot) {
	met := s.met.Load()
	gates := s.gates.Load()
	if gates != nil && gates.tick != nil {
		switch gates.tick(now) {
		case TickSkip:
			met.missed.Inc()
			return
		case TickDie:
			s.dead.Store(true)
			// Removing our own ticker from inside its callback is legal;
			// the engine skips the re-arm of a ticker removed mid-fire.
			s.mu.Lock()
			s.m.RemoveTicker(s.tickerID)
			s.mu.Unlock()
			met.deaths.Inc()
			return
		}
	}
	met.ticks.Inc()
	var t0 time.Time
	if met.tickNS != nil {
		t0 = time.Now()
	}
	if s.sockSlots == nil {
		s.resolve()
	}
	s.writes = s.writes[:0]
	totalE, totalP := 0.0, 0.0
	havePower := false
	for d := range s.lastEnergy { // one per reader domain
		e, err := s.reader.Energy(d)
		if err != nil {
			// Counter read failures are recorded as a stale meter rather
			// than tearing down the daemon.
			met.readErrors.Inc()
			continue
		}
		s.putSocket(gates, met, d, meterEnergy, float64(e), now)
		totalE += float64(e)
		if dt := now - s.lastTime[d]; s.haveBase[d] && dt > 0 {
			p := (float64(e) - s.lastEnergy[d]) / dt.Seconds()
			s.putSocket(gates, met, d, meterPower, p, now)
			totalP += p
			havePower = true
		}
		s.lastEnergy[d] = float64(e)
		s.lastTime[d] = now
		s.haveBase[d] = true
	}
	for d, sock := range snap.Sockets {
		s.putSocket(gates, met, d, meterMemBandwidth, float64(sock.Bandwidth), now)
		s.putSocket(gates, met, d, meterMemConcurrency, sock.OutstandingRefs, now)
		s.putSocket(gates, met, d, meterTemperature, float64(sock.Temperature), now)
	}
	s.writes = append(s.writes, slotWrite{s.sysSlots[meterEnergy], totalE})
	if havePower {
		s.writes = append(s.writes, slotWrite{s.sysSlots[meterPower], totalP})
	}
	s.writes = append(s.writes, slotWrite{s.sysSlots[meterHeartbeat], float64(s.ticks.Add(1))})
	s.bb.publish(now, s.writes)
	if p := s.pub.Load(); p != nil {
		p.Tick(now)
	}
	if met.tickNS != nil {
		met.tickNS.Observe(float64(time.Since(t0)))
	}
}

// resolve looks the sampler's meters up on its blackboard once.
func (s *Sampler) resolve() {
	s.sockSlots = make([][len(socketMeters)]*slot, s.bb.Sockets())
	for d := range s.sockSlots {
		for i, name := range socketMeters {
			s.sockSlots[d][i] = s.bb.handle(s.bb.socketScope(d), name)
		}
	}
	for i, name := range systemMeters {
		s.sysSlots[i] = s.bb.handle(s.bb.systemScope(), name)
	}
	s.writes = make([]slotWrite, 0, len(s.sockSlots)*len(socketMeters)+len(systemMeters))
}

// putSocket adds one socket meter to the tick's write unless a meter
// gate suppresses it (a torn row: some meters of the socket land, others
// keep their old stamp and version).
func (s *Sampler) putSocket(gates *samplerGates, met *samplerMetrics, socket, meter int, v float64, now time.Duration) {
	if gates != nil && gates.meter != nil && !gates.meter(now, socket, socketMeters[meter]) {
		met.drops.Inc()
		return
	}
	s.writes = append(s.writes, slotWrite{s.sockSlots[socket][meter], v})
}

package rcr

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/machine"
	"repro/internal/rapl"
	"repro/internal/telemetry"
)

// DefaultSamplePeriod is how often the sampler refreshes the blackboard.
// The real RCRdaemon updates its shared-memory region at a similar rate;
// consumers like the MAESTRO throttle daemon poll less often (0.1 s) to
// smooth jitter (paper §IV).
const DefaultSamplePeriod = 10 * time.Millisecond

// samplerMetrics is the sampler's instrument set, installed atomically
// by Instrument so publishing can begin while ticks are in flight.
type samplerMetrics struct {
	ticks      *telemetry.Counter
	readErrors *telemetry.Counter
	missed     *telemetry.Counter   // windows skipped by an injected stall
	drops      *telemetry.Counter   // meter publishes suppressed (torn rows)
	deaths     *telemetry.Counter   // injected sampler crashes
	tickNS     *telemetry.Histogram // host nanoseconds per sample tick
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
	// permanently dead, as if the measurement daemon segfaulted. Only a
	// supervisor restart (StartSupervisor) brings sampling back.
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
// virtual-time ticker, so samples land at exact virtual instants.
type Sampler struct {
	m        *machine.Machine
	reader   rapl.Reader
	bb       *Blackboard
	period   time.Duration
	tickerID int

	met   atomic.Pointer[samplerMetrics]
	gates atomic.Pointer[samplerGates]
	pub   atomic.Pointer[Publisher]
	dead  atomic.Bool
	ticks atomic.Uint64 // completed (non-skipped) sample ticks

	// Engine-goroutine state (only touched inside the ticker callback,
	// except for the baseline seeding in StartSampler, which completes
	// before the ticker is registered). Baselines are per-domain so a
	// domain whose counter read fails resynchronizes over its own
	// window instead of borrowing a neighbour's.
	lastEnergy []float64
	lastTime   []time.Duration
	haveBase   []bool
}

// StartSampler registers a sampler on the machine and returns it. The
// blackboard is updated every period of virtual time until Stop.
//
// The energy baseline is seeded from the counters before the first tick,
// so the first sample window already publishes a power meter: consumers
// polling the blackboard during the first period see real data instead
// of a zero-valued "idle" node (they previously had to wait out two
// periods for the first derivative).
func StartSampler(m *machine.Machine, reader rapl.Reader, bb *Blackboard, period time.Duration) (*Sampler, error) {
	if period <= 0 {
		period = DefaultSamplePeriod
	}
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
		period:     period,
		lastEnergy: make([]float64, reader.Domains()),
		lastTime:   make([]time.Duration, reader.Domains()),
		haveBase:   make([]bool, reader.Domains()),
	}
	// Seed per-domain baselines; a domain whose read fails here starts
	// publishing power one window later, exactly as before.
	start := m.Now()
	for d := 0; d < reader.Domains(); d++ {
		e, err := reader.Energy(d)
		if err != nil {
			continue
		}
		s.lastEnergy[d] = float64(e)
		s.lastTime[d] = start
		s.haveBase[d] = true
	}
	id, err := m.AddTicker(period, s.sample)
	if err != nil {
		return nil, err
	}
	s.tickerID = id
	return s, nil
}

// Instrument registers the sampler's tick/error counters and tick
// latency histogram in reg. Safe to call while sampling is in flight.
func (s *Sampler) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	s.met.Store(&samplerMetrics{
		ticks:      reg.Counter("rcr_sampler_ticks_total"),
		readErrors: reg.Counter("rcr_sampler_read_errors_total"),
		missed:     reg.Counter("rcr_sampler_missed_windows_total"),
		drops:      reg.Counter("rcr_sampler_dropped_publishes_total"),
		deaths:     reg.Counter("rcr_sampler_deaths_total"),
		// Host-side cost of one sample tick: 250 ns to 1 ms.
		tickNS: reg.Histogram("rcr_sampler_tick_ns", 250, 1000, 4000, 16000, 64000, 250000, 1e6),
	})
}

// SetFaultGates installs (or, with nils, removes) the sampler's fault
// gates. Safe to call while sampling is in flight.
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

// Alive reports whether the sampler is still ticking (false after an
// injected crash).
func (s *Sampler) Alive() bool { return !s.dead.Load() }

// Blackboard returns the blackboard this sampler writes.
func (s *Sampler) Blackboard() *Blackboard { return s.bb }

// Period returns the sampling period.
func (s *Sampler) Period() time.Duration { return s.period }

// Stop unregisters the sampler's ticker.
func (s *Sampler) Stop() { s.m.RemoveTicker(s.tickerID) }

// sample runs on the machine's stepper at each period (machine.TickerFunc):
// one at a time, never beside an owner; it must not block, charge or Stop.
func (s *Sampler) sample(now time.Duration, snap *machine.Snapshot) {
	met := s.met.Load()
	gates := s.gates.Load()
	if gates != nil && gates.tick != nil {
		switch gates.tick(now) {
		case TickSkip:
			if met != nil {
				met.missed.Inc()
			}
			return
		case TickDie:
			s.dead.Store(true)
			// Removing our own ticker from inside its callback is legal;
			// the engine skips the re-arm of a ticker removed mid-fire.
			s.m.RemoveTicker(s.tickerID)
			if met != nil {
				met.deaths.Inc()
			}
			return
		}
	}
	var t0 time.Time
	if met != nil {
		t0 = time.Now()
		met.ticks.Inc()
	}
	totalE, totalP := 0.0, 0.0
	havePower := false
	for d := 0; d < s.reader.Domains(); d++ {
		e, err := s.reader.Energy(d)
		if err != nil {
			// Counter read failures are recorded as a stale meter rather
			// than tearing down the daemon.
			if met != nil {
				met.readErrors.Inc()
			}
			continue
		}
		s.putSocket(gates, met, d, MeterEnergy, float64(e), now)
		totalE += float64(e)
		if dt := now - s.lastTime[d]; s.haveBase[d] && dt > 0 {
			p := (float64(e) - s.lastEnergy[d]) / dt.Seconds()
			s.putSocket(gates, met, d, MeterPower, p, now)
			totalP += p
			havePower = true
		}
		s.lastEnergy[d] = float64(e)
		s.lastTime[d] = now
		s.haveBase[d] = true
	}
	for d, sock := range snap.Sockets {
		s.putSocket(gates, met, d, MeterMemBandwidth, float64(sock.Bandwidth), now)
		s.putSocket(gates, met, d, MeterMemConcurrency, sock.OutstandingRefs, now)
		s.putSocket(gates, met, d, MeterTemperature, float64(sock.Temperature), now)
	}
	s.bb.SetSystem(MeterEnergy, totalE, now)
	if havePower {
		s.bb.SetSystem(MeterPower, totalP, now)
	}
	s.bb.SetSystem(MeterHeartbeat, float64(s.ticks.Add(1)), now)
	if p := s.pub.Load(); p != nil {
		p.Tick(now)
	}
	if met != nil {
		met.tickNS.Observe(float64(time.Since(t0)))
	}
}

// putSocket publishes one socket meter unless a meter gate suppresses it
// (a torn row: some meters of the socket land, others keep their old
// stamp).
func (s *Sampler) putSocket(gates *samplerGates, met *samplerMetrics, socket int, meter string, v float64, now time.Duration) {
	if gates != nil && gates.meter != nil && !gates.meter(now, socket, meter) {
		if met != nil {
			met.drops.Inc()
		}
		return
	}
	s.bb.SetSocket(socket, meter, v, now)
}

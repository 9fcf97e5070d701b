package machine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/msr"
	"repro/internal/units"
)

// coreState is the machine-visible state of a simulated core.
type coreState int

const (
	coreUnowned  coreState = iota // no worker enrolled; deep C-state
	coreRunning                   // owner executing host code (zero virtual time)
	coreBusy                      // executing a Work item
	coreAtomic                    // serialized atomic operations on a Line
	coreSpinWait                  // spinning on a condition at current duty
	coreIdleWait                  // parked (mwait) on a condition
)

// Work is one charged unit of execution: Ops compute cycles and Bytes of
// memory traffic consumed proportionally.
//
// Two fields shape power draw without affecting timing:
//   - Activity is the power-relevant instruction density while the core
//     is making progress (an IPC proxy): 1 for dense arithmetic, lower
//     for branchy or latency-stalled code. Zero means 1.
//   - Overlap credits power for compute/memory overlap during
//     bandwidth-limited stalls (0 = stalls are idle, 1 = stalls draw full
//     active power, as in aggressively prefetched codes; paper §II-C.2
//     notes such algorithms need more peak power).
type Work struct {
	Ops      float64
	Bytes    float64
	Overlap  float64
	Activity float64
}

// Clamped returns w as Execute charges it: negative Ops and Bytes count
// as zero and Overlap is clamped to [0, 1].
func (w Work) Clamped() Work {
	if w.Ops < 0 {
		w.Ops = 0
	}
	if w.Bytes < 0 {
		w.Bytes = 0
	}
	if w.Overlap < 0 {
		w.Overlap = 0
	}
	if w.Overlap > 1 {
		w.Overlap = 1
	}
	return w
}

// Rates splits the progress of a core busy on w, clocked at cycleRate
// cycles/s and granted grant bytes/s: mixed work runs at the slower of
// its clock and its grant, pure compute at its clock, a pure stream at
// its grant. activeFrac is the fraction of cycles that retire ops.
func (w Work) Rates(cycleRate, grant float64) (opsRate, bytesRate, activeFrac float64) {
	switch {
	case w.Ops > 0 && w.Bytes > 0:
		bytesPerOp := w.Bytes / w.Ops
		opsRate = cycleRate
		if g := grant / bytesPerOp; g < opsRate {
			opsRate = g
		}
		bytesRate = opsRate * bytesPerOp
	case w.Ops > 0:
		opsRate = cycleRate
	default:
		bytesRate = grant
	}
	if cycleRate > 0 {
		activeFrac = opsRate / cycleRate
	}
	return opsRate, bytesRate, activeFrac
}

// PowerActivity is the power-relevant activity of a core busy on w with
// activeFrac of its cycles retiring ops: Activity (zero meaning 1) over
// those cycles plus the Overlap credit over the stalled rest.
func (w Work) PowerActivity(activeFrac float64) float64 {
	a := w.Activity
	if a <= 0 || a > 1 {
		a = 1
	}
	return a*activeFrac + (1-activeFrac)*w.Overlap
}

// BandwidthDemand is the bandwidth (bytes/s) a core busy on w asks for at
// cycleRate cycles/s: its bytes per op at that clock, or the per-core cap
// for a pure stream.
func (w Work) BandwidthDemand(cycleRate float64, mem MemParams) float64 {
	if w.Ops <= 0 {
		return float64(mem.MaxCoreBandwidth())
	}
	return w.Bytes / w.Ops * cycleRate
}

// AtomicRate is the service rate (ops/s) of each of k cores contending for
// one line at cycleRate cycles/s: service is serialized across the k, and
// each op costs costCycles, grown by pingPong per extra contender.
func AtomicRate(cycleRate, costCycles, pingPong, k float64) float64 {
	return cycleRate / (costCycles * (1 + pingPong*(k-1)) * k)
}

// Abort is the panic value raised out of blocking CoreCtx calls when the
// machine is stopped or hits its virtual-time watchdog while workers are
// still enrolled. Worker loops recover it and unwind.
type Abort struct{ Err error }

func (a Abort) Error() string { return fmt.Sprintf("machine: aborted: %v", a.Err) }

// ErrStopped is the abort cause when Stop is called with workers enrolled.
var ErrStopped = errors.New("machine stopped")

// core is the engine-side record of one simulated core.
type core struct {
	id     int
	socket int
	state  coreState

	duty float64 // cached from IA32_CLOCK_MODULATION (write-through via CoreCtx)

	// Busy state.
	work             Work
	remOps, remBytes float64
	stepOpsRate      float64 // cycles/s granted by the current plan
	stepBytesRate    float64 // bytes/s granted by the current plan
	stepActiveFrac   float64 // compute fraction for power in the current plan
	// Atomic state.
	line       *Line
	remAtomics float64
	// Wait state. A wait ends when cond returns true or, if deadline is
	// non-zero, when virtual time reaches it.
	cond     func() bool
	deadline time.Duration
	// dlIdx is the core's position in the engine's deadline heap, -1 when
	// absent (see events.go).
	dlIdx int
	// Wakeup channel; buffered so the engine never blocks sending. msg is
	// the message a core queued in Machine.runQ will be resumed with.
	wake chan wakeMsg
	msg  wakeMsg
}

type wakeMsg struct {
	abort   error
	condMet bool // the wait's condition was true (vs deadline expiry)
}

// ticker is a registered periodic callback in virtual time.
type ticker struct {
	id     int // AddTicker's registration number: the same-instant order
	period time.Duration
	next   time.Duration
	fn     TickerFunc
	// heapIdx is the ticker's position in the engine's deadline heap
	// (see events.go), -1 when removed.
	heapIdx int
	// coalesced counts deadlines merged into a single fire because a step
	// overshot more than one period. Step planning bounds every step by
	// the earliest ticker deadline, so this stays zero unless a future
	// change breaks that invariant; fireTickersLocked tolerates overshoot
	// by firing once and jumping past the missed deadlines.
	coalesced uint64
}

// TickerFunc is called at each ticker deadline with the current virtual
// time and a metrics snapshot. It runs on the stepper — the goroutine of
// the owner that blocked last, or the engine goroutine — with the machine
// lock released, one callback at a time and never beside an owner's host
// code. It must be fast and may call non-blocking Machine methods
// (AddTicker, RemoveTicker — including on itself — Snapshot,
// RequestFrequencyScale, reading the MSR file), but must not block, make
// CoreCtx charging calls or call Stop or WhenQuiescent (both wait for the
// stepper, which is running the callback). The snapshot is only valid for
// the duration of the call — the buffer is reused across fires; use
// Snapshot.Clone to retain it.
type TickerFunc func(now time.Duration, s *Snapshot)

// SocketSnapshot is the instantaneous state of one socket.
type SocketSnapshot struct {
	Power                units.Watts
	Energy               units.Joules // exact cumulative energy (unquantized)
	Temperature          units.Celsius
	OutstandingRefs      float64
	Bandwidth            units.BytesPerSecond
	BandwidthUtilization float64 // fraction of plateau bandwidth in use
}

// Snapshot is the instantaneous state of the node as of the last engine
// step.
type Snapshot struct {
	Now     time.Duration
	Sockets []SocketSnapshot
}

// Machine is a simulated node. Create with New, release with Stop.
type Machine struct {
	cfg     Config
	msrFile *msr.File

	mu sync.Mutex
	// The engine goroutine, WhenQuiescent and Stop wait on engCond. It is
	// broadcast by Kick, a Hold release, Release, AddTicker, an abort and
	// a stepper that stops with nothing running — not by the charging
	// calls, whose owner steps the clock itself.
	engCond *sync.Cond
	cores   []*core
	running int // owners executing host code: time may not advance while > 0
	// stepping is the stepping claim: one goroutine at a time — the owner
	// that blocked last, or the engine goroutine — runs stepLocked, and
	// holds the claim even while a ticker callback has the lock released.
	stepping bool
	// outsiders counts the WhenQuiescent calls waiting for their turn; a
	// stepper that reaches quiescence stops for them.
	outsiders int
	// runQ holds the cores that are coreRunning but not yet resumed —
	// woken by a step or yielding — in ascending id. The stepper resumes
	// its front only while running == 0, so of all the owners a wake-up
	// made runnable exactly one executes at a time.
	runQ    []*core
	now     time.Duration
	stopped bool
	err     error

	tickers      map[int]*ticker
	nextTickerID int
	held         int // outstanding Hold()s; >0 freezes virtual time

	// stepHook, when non-nil, observes every engine step (see trace.go).
	stepHook StepHook

	// Incremental engine indexes (events.go): per-socket busy lists and
	// state counts, the contended-line groups, the waiting cores whose
	// conditions need polling, and the min-heaps of virtual-time events
	// (wait deadlines and ticker deadlines). Updated at state
	// transitions; the per-step planner never rescans m.cores.
	socks       []socketIndex
	totBusy     int
	totAtomic   int
	condWaiters []*core // wait-state cores with a condition, ascending id
	dlHeap      []*core // wait-state cores with a deadline, min-heap
	tickerHeap  []*ticker
	lineGroups  map[*Line]*lineGroup
	groupPool   []*lineGroup

	energy   []float64 // exact joules per socket
	temp     []units.Celsius
	lastSnap Snapshot

	// planDirty names the sockets whose part of the plan is stale: a core
	// of the socket changed state, duty or demand, or its DVFS scale
	// changed, since replanLocked last computed it. Bits are set through
	// markPlanLocked at the choke points every such change passes through
	// (docs/engine.md §Plan reuse) and cleared only by replanLocked. The
	// plan is, per socket, its busy cores' step* rates, stepRefs,
	// stepUtil, stepBasePower (the power sum before leakage) and
	// stepBandwidth (the granted-bandwidth total of the busy list); and,
	// for the whole machine, the atomic cores' rates and the list of
	// cores that progress during a step (busy and atomic, ascending id).
	planDirty     uint64
	stepProgress  []*core
	stepRefs      []float64
	stepUtil      []float64
	stepBasePower []units.Watts
	stepBandwidth []float64
	// stepPower is the socket power the most recent step integrated,
	// stepEnergy the energy it charged to each socket's RAPL counter.
	stepPower  []units.Watts
	stepEnergy []units.Joules
	// Thermal.decay depends on nothing but the step length, so it is
	// kept for MaxStep (every capped step) and for the last other length
	// (a run of ticker-bounded steps): only a step of a new length
	// evaluates an exponential.
	maxStepDecay float64
	decayDt      time.Duration
	decay        float64

	// Scratch buffers owned by the holder of the stepping claim, reused
	// every step so the steady-state hot path performs zero allocations
	// (pinned by TestEngineStepAllocs): bandwidth demands, the allocator's
	// working slices, and the snapshot buffer handed to ticker callbacks.
	demandScratch []float64
	allocScratch  allocScratch
	tickSnap      Snapshot

	// Per-socket DVFS state: the applied scale (engine-owned) and the
	// lock-free request slots (see dvfs.go).
	freqScale    []float64
	freqScaleReq []atomic.Uint64

	engineDone chan struct{}
}

// New builds and starts a simulated machine. The caller must Stop it.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:           cfg,
		msrFile:       msr.NewFile(cfg.Sockets, cfg.CoresPerSocket),
		tickers:       make(map[int]*ticker),
		energy:        make([]float64, cfg.Sockets),
		temp:          make([]units.Celsius, cfg.Sockets),
		stepRefs:      make([]float64, cfg.Sockets),
		stepUtil:      make([]float64, cfg.Sockets),
		stepBasePower: make([]units.Watts, cfg.Sockets),
		stepBandwidth: make([]float64, cfg.Sockets),
		stepPower:     make([]units.Watts, cfg.Sockets),
		stepEnergy:    make([]units.Joules, cfg.Sockets),
		planDirty:     allSockets,
		maxStepDecay:  cfg.Thermal.decay(cfg.MaxStep),
		engineDone:    make(chan struct{}),
	}
	m.engCond = sync.NewCond(&m.mu)
	m.initDVFS()
	m.cores = make([]*core, cfg.Cores())
	for i := range m.cores {
		m.cores[i] = &core{
			id:     i,
			socket: cfg.SocketOf(i),
			state:  coreUnowned,
			duty:   1,
			dlIdx:  -1,
			wake:   make(chan wakeMsg, 1),
		}
	}
	m.socks = make([]socketIndex, cfg.Sockets)
	for s := range m.socks {
		m.socks[s].busy = make([]*core, 0, cfg.CoresPerSocket)
	}
	m.stepProgress = make([]*core, 0, cfg.Cores())
	m.condWaiters = make([]*core, 0, cfg.Cores())
	m.runQ = make([]*core, 0, cfg.Cores())
	m.dlHeap = make([]*core, 0, cfg.Cores())
	m.lineGroups = make(map[*Line]*lineGroup)
	m.demandScratch = make([]float64, 0, cfg.CoresPerSocket)
	m.allocScratch.grow(cfg.CoresPerSocket)
	m.tickSnap.Sockets = make([]SocketSnapshot, cfg.Sockets)
	for s := range m.temp {
		m.temp[s] = cfg.Thermal.Ambient + 15 // powered on but cool
	}
	// Seed the step power with the all-idle figure so snapshots taken
	// before the first step are sensible.
	idle := cfg.Power.UncoreBase + units.Watts(cfg.CoresPerSocket)*cfg.Power.CoreUnowned
	for s := range m.stepPower {
		m.stepPower[s] = units.Watts(float64(idle) * cfg.Thermal.LeakageFactorAt(m.temp[s]))
	}
	m.updateSnapLocked()
	go m.engine()
	return m, nil
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// MSR returns the node's register file.
func (m *Machine) MSR() *msr.File { return m.msrFile }

// Now returns the current virtual time.
func (m *Machine) Now() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// Err returns the fatal simulation error, if any (watchdog expiry).
func (m *Machine) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// TotalEnergy returns the exact cumulative energy of all sockets. Unlike
// the RAPL counters this is neither quantized nor wrapping; it exists for
// cross-checks. Measurements should flow through the rapl/rcr path.
func (m *Machine) TotalEnergy() units.Joules {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := 0.0
	for _, e := range m.energy {
		t += e
	}
	return units.Joules(t)
}

// SocketEnergy returns the exact cumulative energy of one socket.
func (m *Machine) SocketEnergy(socket int) units.Joules {
	m.mu.Lock()
	defer m.mu.Unlock()
	if socket < 0 || socket >= len(m.energy) {
		return 0
	}
	return units.Joules(m.energy[socket])
}

// Snapshot returns the node state as of the last engine step.
func (m *Machine) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastSnap.Clone()
}

// Clone returns a deep copy of the snapshot. Ticker callbacks that need
// to retain their snapshot beyond the call must clone it: the engine
// reuses the snapshot buffer it passes them.
func (s Snapshot) Clone() Snapshot {
	out := Snapshot{Now: s.Now, Sockets: make([]SocketSnapshot, len(s.Sockets))}
	copy(out.Sockets, s.Sockets)
	return out
}

// SetTemperature forces a socket's die temperature, e.g. to start an
// experiment from a warm (or cold) machine without simulating the
// preceding minutes.
func (m *Machine) SetTemperature(socket int, t units.Celsius) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if socket < 0 || socket >= len(m.temp) {
		return fmt.Errorf("machine: socket %d out of range", socket)
	}
	m.temp[socket] = t
	m.updateSnapLocked()
	return nil
}

// WarmAll sets every socket to the given temperature.
func (m *Machine) WarmAll(t units.Celsius) {
	for s := 0; s < m.cfg.Sockets; s++ {
		if err := m.SetTemperature(s, t); err != nil {
			panic(err) // socket indices come from our own config
		}
	}
}

// Temperature returns a socket's current die temperature.
func (m *Machine) Temperature(socket int) units.Celsius {
	m.mu.Lock()
	defer m.mu.Unlock()
	if socket < 0 || socket >= len(m.temp) {
		return 0
	}
	return m.temp[socket]
}

// AddTicker registers fn to run every period of virtual time, first firing
// one period from now. It returns an id for RemoveTicker.
func (m *Machine) AddTicker(period time.Duration, fn TickerFunc) (int, error) {
	if period <= 0 {
		return 0, fmt.Errorf("machine: ticker period %v must be positive", period)
	}
	if fn == nil {
		return 0, errors.New("machine: ticker func must not be nil")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	id := m.nextTickerID
	m.nextTickerID++
	tk := &ticker{id: id, period: period, next: m.now + period, fn: fn}
	m.tickers[id] = tk
	m.tkPushLocked(tk)
	// A clock that stopped with nothing to plan has a deadline now. A
	// stepper mid-pass plans its next step after this lock is released,
	// from the heap front, so it cannot pass the new ticker's first
	// deadline.
	m.engCond.Broadcast()
	return id, nil
}

// RemoveTicker unregisters a ticker. Removing an unknown id is a no-op.
// Safe to call from inside a ticker callback, including the removed
// ticker's own (the engine skips the re-arm of a ticker removed
// mid-fire). A removal racing an in-flight fire may observe that one
// last callback.
func (m *Machine) RemoveTicker(id int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if tk, ok := m.tickers[id]; ok {
		m.tkRemoveLocked(tk)
		delete(m.tickers, id)
	}
}

// Hold freezes virtual time and returns the matching release function.
// While at least one hold is outstanding the engine neither advances
// time nor fires tickers; cores may still enroll and park, and tickers
// may still be registered. A hold lets a caller assemble a whole
// experiment stack (runtime, sampler, daemon) with the clock parked at
// a known instant, so every run starts with identical ticker phases
// regardless of how the host scheduler interleaves construction with
// the engine, and it is the only way to keep a ticker-driven clock from
// running ahead while the host does something else. Holds nest; the
// release function is idempotent.
func (m *Machine) Hold() func() {
	m.mu.Lock()
	m.held++
	m.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			m.mu.Lock()
			m.held--
			m.engCond.Broadcast()
			m.mu.Unlock()
		})
	}
}

// Kick asks the engine to re-evaluate wait conditions. Call it after a
// host-side action (such as enqueueing work) that may satisfy a condition
// some core is spinning or parked on.
func (m *Machine) Kick() {
	m.mu.Lock()
	m.engCond.Broadcast()
	m.mu.Unlock()
}

// WhenQuiescent is how a goroutine that owns no core changes state the
// owners' host code reads (a runtime's task queue, its shutdown flag): it
// waits until no owner is running or queued and no step is under way —
// every enrolled core is blocked in a charging call, and a stepper that
// was running stopped for it before advancing time — runs fn, and kicks
// the engine to re-poll wait conditions. The owners therefore see the
// change at a boundary between engine steps, all of them at the same one,
// instead of wherever the host scheduler put the caller relative to their
// host code. fn runs under the machine lock: like a wait condition it
// must be fast and must not call Machine or CoreCtx methods. On a stopped
// machine fn runs at once. The caller must not own a core that is in host
// code.
func (m *Machine) WhenQuiescent(fn func()) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.outsiders++
	for !m.stopped && (m.running > 0 || len(m.runQ) > 0 || m.stepping) {
		m.engCond.Wait()
	}
	m.outsiders--
	fn()
	m.engCond.Broadcast()
}

// Stop shuts the engine down. Cores still blocked in charging calls or
// queued for the baton are aborted (their calls panic with Abort); cores
// in host code are left to discover the stop at their next charging call.
// It returns once no stepper is left. Stop is idempotent.
func (m *Machine) Stop() {
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		<-m.engineDone
		return
	}
	m.abortLocked(ErrStopped)
	m.mu.Unlock()
	<-m.engineDone
}

// abortLocked marks the machine stopped and wakes every blocked core with
// the given cause.
func (m *Machine) abortLocked(cause error) {
	if m.stopped {
		return
	}
	m.stopped = true
	if m.err == nil && !errors.Is(cause, ErrStopped) {
		m.err = cause
	}
	for _, c := range m.cores {
		switch c.state {
		case coreBusy, coreAtomic, coreSpinWait, coreIdleWait:
			m.unindexBlockedLocked(c)
			c.state = coreRunning
			m.running++
			c.wake <- wakeMsg{abort: cause}
		}
	}
	// Owners queued for the baton are parked on their wake channels too,
	// and no stepper will resume them any more. Abort unwinds rather than
	// schedules, so they are all released at once.
	for _, c := range m.runQ {
		m.running++
		c.wake <- wakeMsg{abort: cause}
	}
	m.runQ = m.runQ[:0]
	m.engCond.Broadcast()
}

// Enroll claims a core for the calling goroutine and returns its context.
// The caller owns the core until Release and must promptly keep it inside
// blocking CoreCtx calls: host-side execution between calls stalls virtual
// time for the whole machine.
func (m *Machine) Enroll(coreID int) (*CoreCtx, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stopped {
		return nil, ErrStopped
	}
	if coreID < 0 || coreID >= len(m.cores) {
		return nil, fmt.Errorf("machine: core %d out of range [0,%d)", coreID, len(m.cores))
	}
	c := m.cores[coreID]
	if c.state != coreUnowned {
		return nil, fmt.Errorf("machine: core %d already enrolled", coreID)
	}
	c.state = coreRunning
	c.duty = 1
	m.markPlanLocked(c.socket)
	if err := m.msrFile.SetCoreDuty(coreID, false, 0); err != nil {
		panic(err) // core id validated above
	}
	m.running++
	return &CoreCtx{m: m, c: c}, nil
}

// EnrolledCount returns the number of currently enrolled cores.
func (m *Machine) EnrolledCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, c := range m.cores {
		if c.state != coreUnowned {
			n++
		}
	}
	return n
}

// effActiveFrac returns the power-relevant activity fraction of a core:
// the compute fraction (scaled by the work's instruction density) plus
// the overlap credit for stalled cycles.
func (c *core) effActiveFrac() float64 {
	if c.state == coreAtomic {
		if c.line != nil {
			return c.line.activity
		}
		return 0.85
	}
	if c.state != coreBusy {
		return 0
	}
	return c.work.PowerActivity(c.stepActiveFrac)
}

// bwDemand returns the bandwidth (bytes/s) this busy core wants at its
// current duty cycle.
func (c *core) bwDemand(cfg *Config, fs float64) float64 {
	if c.state != coreBusy || c.remBytes <= 0 {
		return 0
	}
	return c.work.BandwidthDemand(float64(cfg.BaseFreq)*c.duty*fs, cfg.Mem)
}

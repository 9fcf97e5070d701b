// Package refmodel is the differential-testing oracle for the optimized
// quantum engine in internal/machine: a deliberately naive,
// scan-everything reference engine with no indexes, no scratch buffers
// and no incremental state — just straight-line per-quantum loops over
// all cores, sockets and lines.
//
// The optimized engine's incremental indexes keep every core list in
// ascending id order precisely so that floating-point accumulation
// happens in the order full scans would use (docs/engine.md). This
// package exploits that contract from the other side. Both engines call
// the same point formulas — machine's power, leakage, thermal, DVFS,
// bandwidth and progress-rate functions and its msr.File for RAPL
// quantization and wrap — so what differs is what the oracle checks: the
// engine's busy lists, line groups, deadline and ticker heaps, plan
// reuse, baton order and summation order against plain scans, every
// quantum recomputed from scratch. Both must agree bit-for-bit on every
// step of every scenario; the differential harness (internal/machine's
// Differential tests and FuzzDifferential) fails on the first diverging
// quantum. A change to a shared formula moves both engines together:
// the formulas' unit tests, Audit and the paperbench golden catch it.
package refmodel

import (
	"fmt"
	"math"
	"time"

	"repro/internal/machine"
	"repro/internal/msr"
	"repro/internal/units"
)

// never mirrors the engine's "no deadline" sentinel.
const never = time.Duration(math.MaxInt64)

// maxSteps is a runaway guard: generated scenarios take a few hundred
// steps, so hitting this means the interpreter failed to converge.
const maxSteps = 1_000_000

// rstate mirrors the machine's core states.
type rstate int

const (
	stUnowned rstate = iota
	stAwake          // owner executing host code (machine: coreRunning)
	stBusy
	stAtomic
	stSpinWait
	stIdleWait
)

// rcore is the reference engine's per-core record.
type rcore struct {
	id, socket int
	state      rstate
	duty       float64

	work             machine.Work
	remOps, remBytes float64
	stepOpsRate      float64
	stepBytesRate    float64
	stepActiveFrac   float64

	line       int // index into Scenario.Lines, -1 when none
	remAtomics float64

	deadline time.Duration // 0 when none

	worker int // index into Scenario.Workers, -1 for the controller
	pc     int
}

// itemStall is the reference engine's machine.StallError with the
// script position of the item the stalled core was running.
type itemStall struct {
	machine.StallError
	worker, op int // index into Scenario.Workers and into its Ops
}

func (e itemStall) Unwrap() error { return e.StallError }

// ctlOp is one compiled controller step.
type ctlOp struct {
	global  *GlobalOp
	sleep   time.Duration
	cleanup bool
}

// rtick is a live reference-engine ticker.
type rtick struct {
	slot         int
	period, next time.Duration
	op           *GlobalOp // the registering op, for its DVFS requests
	fires        int
}

// sim is the whole reference-engine state: plain slices, no indexes.
type sim struct {
	sc  Scenario
	cfg machine.Config
	now time.Duration

	cores    []*rcore
	enrolled int

	freqScale []float64 // applied scale per socket
	reqScale  []float64 // pending request per socket (always re-applied)
	stepRefs  []float64
	stepUtil  []float64
	stepPower []float64

	energy []float64
	temp   []units.Celsius
	file   *msr.File // RAPL counters

	tickers []*rtick
	ctl     []ctlOp
	ctlPC   int

	res *Result
}

// Run interprets a scenario on the naive reference engine and returns
// the trajectory in the same shape PlayMachine produces. A run that
// stops because no step can be planned (a stalled core) returns its
// trajectory up to there along with the error.
func Run(sc Scenario) (*Result, error) {
	if err := sc.Cfg.Validate(); err != nil {
		return nil, err
	}
	s := newSim(sc)
	s.startController()
	s.procAwake()
	for steps := 0; s.enrolled > 0; {
		if s.wakeDue() {
			s.procAwake()
			continue
		}
		s.applyDVFS()
		dt, err := s.plan()
		if err != nil {
			collectFinal(s.file, s.energy, s.res)
			return s.res, err
		}
		s.advance(dt)
		s.procAwake() // completions woke cores
		s.fireTickers()
		if steps++; steps > maxSteps {
			return nil, fmt.Errorf("refmodel: scenario exceeded %d steps at t=%v", maxSteps, s.now)
		}
	}
	collectFinal(s.file, s.energy, s.res)
	return s.res, nil
}

func newSim(sc Scenario) *sim {
	cfg := sc.Cfg
	s := &sim{
		sc:        sc,
		cfg:       cfg,
		freqScale: make([]float64, cfg.Sockets),
		reqScale:  make([]float64, cfg.Sockets),
		stepRefs:  make([]float64, cfg.Sockets),
		stepUtil:  make([]float64, cfg.Sockets),
		stepPower: make([]float64, cfg.Sockets),
		energy:    make([]float64, cfg.Sockets),
		temp:      make([]units.Celsius, cfg.Sockets),
		file:      msr.NewFile(cfg.Sockets, cfg.CoresPerSocket),
		res:       &Result{Tickers: make([][]TickerFire, sc.TickerSlots)},
	}
	for i := range s.freqScale {
		s.freqScale[i] = 1
		s.reqScale[i] = 1
		s.temp[i] = cfg.Thermal.Ambient + 15 // machine.New: powered on but cool
		must(s.file.WritePackage(i, msr.MSRPkgEnergyStatus, uint64(sc.CounterStart)))
	}
	s.cores = make([]*rcore, cfg.Cores())
	for i := range s.cores {
		s.cores[i] = &rcore{id: i, socket: cfg.SocketOf(i), duty: 1, line: -1, worker: -1}
	}
	// Compile the controller program: phase ops, phase sleeps, then the
	// end-of-run ticker cleanup (PlayMachine's epilogue).
	for p := range sc.Phases {
		ph := &sc.Phases[p]
		for o := range ph.Ops {
			s.ctl = append(s.ctl, ctlOp{global: &ph.Ops[o]})
		}
		s.ctl = append(s.ctl, ctlOp{sleep: ph.Sleep})
	}
	s.ctl = append(s.ctl, ctlOp{cleanup: true})
	return s
}

func (s *sim) coresOf(sock int) []*rcore {
	return s.cores[sock*s.cfg.CoresPerSocket : (sock+1)*s.cfg.CoresPerSocket]
}

// startController enrolls the controller core (machine.Enroll semantics:
// duty reset, core running).
func (s *sim) startController() {
	c := s.cores[ControllerCore]
	c.state = stAwake
	c.duty = 1
	s.enrolled++
}

// release mirrors CoreCtx.Release: reset duty, unown.
func (s *sim) release(c *rcore) {
	c.duty = 1
	c.state = stUnowned
	s.enrolled--
}

// procAwake runs host code of every awake core, in id order, until all
// cores are blocked, released, or the machine is idle. Host actions at
// one instant commute by scenario construction (workers touch only their
// own core; the controller owns all global state), so processing order
// cannot change the trajectory.
func (s *sim) procAwake() {
	for progressed := true; progressed; {
		progressed = false
		for _, c := range s.cores {
			if c.state != stAwake {
				continue
			}
			progressed = true
			if c.id == ControllerCore && c.worker == -1 {
				s.runController(c)
			} else {
				s.runWorker(c)
			}
		}
	}
}

// runController executes controller ops until it blocks in a sleep or
// releases its core.
func (s *sim) runController(c *rcore) {
	for {
		if s.ctlPC >= len(s.ctl) {
			s.release(c)
			return
		}
		op := s.ctl[s.ctlPC]
		s.ctlPC++
		switch {
		case op.global != nil:
			s.runGlobal(op.global)
		case op.cleanup:
			s.tickers = nil
		default: // sleep (machine.CoreCtx.Sleep)
			if op.sleep <= 0 {
				continue
			}
			c.state = stIdleWait
			c.deadline = s.now + op.sleep
			return
		}
	}
}

func (s *sim) runGlobal(g *GlobalOp) {
	switch g.Kind {
	case GlobalDVFS:
		// RequestFrequencyScale clamps at request time.
		s.reqScale[g.Socket] = machine.ClampFrequencyScale(g.Scale)
	case GlobalAddTicker:
		s.tickers = append(s.tickers, &rtick{slot: g.Ticker, period: g.Period, next: s.now + g.Period, op: g})
	case GlobalRemoveTicker:
		for i, tk := range s.tickers {
			if tk.slot == g.Ticker {
				s.tickers = append(s.tickers[:i], s.tickers[i+1:]...)
				break
			}
		}
	case GlobalStartWorker:
		w := s.sc.Workers[g.Worker]
		c := s.cores[w.Core]
		c.state = stAwake
		c.duty = 1
		c.worker = g.Worker
		c.pc = 0
		s.enrolled++
	}
}

// runWorker executes a worker's script ops until it blocks or releases,
// mirroring the CoreCtx charging-call entry checks exactly.
func (s *sim) runWorker(c *rcore) {
	ops := s.sc.Workers[c.worker].Ops
	for {
		if c.pc >= len(ops) {
			s.release(c)
			return
		}
		op := ops[c.pc]
		c.pc++
		switch op.Kind {
		case OpExecute:
			if op.Work.Ops <= 0 && op.Work.Bytes <= 0 {
				continue
			}
			c.state = stBusy
			c.work = op.Work.Clamped()
			c.remOps, c.remBytes = c.work.Ops, c.work.Bytes
			return
		case OpAtomic:
			if op.N <= 0 {
				continue
			}
			c.state = stAtomic
			c.line = op.Line
			c.remAtomics = op.N
			return
		case OpSleep:
			if op.D <= 0 {
				continue
			}
			c.state = stIdleWait
			c.deadline = s.now + op.D
			return
		case OpSpinFor:
			if op.D <= 0 {
				continue // cond never true: SpinFor returns false
			}
			c.state = stSpinWait
			c.deadline = s.now + op.D
			return
		case OpSetDuty:
			// SetDutyLevel: write-through the clock-modulation encoding.
			c.duty = msr.DutyCycle(msr.EncodeClockModulation(op.Level < msr.DutyLevels, op.Level))
		}
	}
}

// wakeDue wakes every waiting core whose deadline arrived (conditions
// never wake in scenarios: SpinFor waits use a never-true condition).
func (s *sim) wakeDue() bool {
	woke := false
	for _, c := range s.cores {
		if (c.state == stSpinWait || c.state == stIdleWait) && c.deadline > 0 && s.now >= c.deadline {
			c.state = stAwake
			c.deadline = 0
			woke = true
		}
	}
	return woke
}

// applyDVFS mirrors applyFrequencyRequestsLocked: requests take effect
// before each plan.
func (s *sim) applyDVFS() {
	copy(s.freqScale, s.reqScale)
}

// plan mirrors planStepLocked with full scans instead of indexes:
// bandwidth contention per socket, atomic-line service rates, and the minimum over completions, ticker deadlines and
// wait deadlines, capped by MaxStep while demand exists.
func (s *sim) plan() (time.Duration, error) {
	earliest := never
	totBusy, totAtomic := 0, 0
	for _, c := range s.cores {
		switch c.state {
		case stBusy:
			totBusy++
		case stAtomic:
			totAtomic++
		}
	}
	hasDemand := totBusy > 0 || totAtomic > 0

	for sock := 0; sock < s.cfg.Sockets; sock++ {
		var busy []*rcore
		for _, c := range s.coresOf(sock) { // id order = demand-vector order
			if c.state == stBusy {
				busy = append(busy, c)
			}
		}
		if len(busy) == 0 {
			s.stepRefs[sock] = 0
			s.stepUtil[sock] = 0
			continue
		}
		fs := s.freqScale[sock]
		demands := make([]float64, len(busy))
		for i, c := range busy {
			if c.remBytes > 0 {
				demands[i] = c.work.BandwidthDemand(float64(s.cfg.BaseFreq)*c.duty*fs, s.cfg.Mem)
			}
		}
		grants, refs, util := s.allocate(demands)
		s.stepRefs[sock] = refs
		s.stepUtil[sock] = util
		for i, c := range busy {
			cycleRate := float64(s.cfg.BaseFreq) * c.duty * fs
			c.stepOpsRate, c.stepBytesRate, c.stepActiveFrac = c.work.Rates(cycleRate, grants[i])
			t := never
			if c.remOps > 0 && c.stepOpsRate > 0 {
				t = machine.SecondsToDuration(c.remOps / c.stepOpsRate)
			} else if c.remBytes > 0 && c.stepBytesRate > 0 {
				t = machine.SecondsToDuration(c.remBytes / c.stepBytesRate)
			}
			if t == never {
				return 0, fmt.Errorf("refmodel: %w", itemStall{machine.StallError{Core: c.id}, c.worker, c.pc - 1})
			}
			if t < earliest {
				earliest = t
			}
		}
	}

	// Atomic groups, line by line. Iterating Scenario.Lines (instead of a
	// map) is deterministic; per-line member lists are id-ordered scans.
	for li := range s.sc.Lines {
		var members []*rcore
		for _, c := range s.cores {
			if c.state == stAtomic && c.line == li {
				members = append(members, c)
			}
		}
		if len(members) == 0 {
			continue
		}
		line := s.sc.Lines[li]
		for _, c := range members {
			rate := machine.AtomicRate(float64(s.cfg.BaseFreq)*c.duty*s.freqScale[c.socket],
				line.CostCycles, line.PingPong, float64(len(members)))
			c.stepOpsRate = rate
			if rate <= 0 {
				return 0, fmt.Errorf("refmodel: core %d atomic rate is zero", c.id)
			}
			if t := machine.SecondsToDuration(c.remAtomics / rate); t < earliest {
				earliest = t
			}
		}
	}

	for _, tk := range s.tickers {
		if d := tk.next - s.now; d < earliest {
			earliest = d
		}
	}
	for _, c := range s.cores {
		if (c.state == stSpinWait || c.state == stIdleWait) && c.deadline > 0 {
			if d := c.deadline - s.now; d < earliest {
				earliest = d
			}
		}
	}

	if earliest == never {
		return 0, fmt.Errorf("refmodel: nothing can advance virtual time at t=%v", s.now)
	}
	if hasDemand && earliest > s.cfg.MaxStep {
		earliest = s.cfg.MaxStep
	}
	if s.cfg.VirtualTimeLimit > 0 {
		if rem := s.cfg.VirtualTimeLimit - s.now + time.Nanosecond; rem < earliest {
			earliest = rem
		}
	}
	if earliest < time.Nanosecond {
		earliest = time.Nanosecond
	}
	return earliest, nil
}

// allocate mirrors MemParams.allocateInto without scratch buffers: cap
// demands per core, derive outstanding references and the oversubscribed
// capacity, water-fill, report plateau utilization.
func (s *sim) allocate(demands []float64) (grants []float64, refs, util float64) {
	mem := s.cfg.Mem
	coreCap := float64(mem.MaxCoreBandwidth())
	capped := make([]float64, len(demands))
	for i, d := range demands {
		if d < 0 {
			d = 0
		}
		if d > coreCap {
			d = coreCap
		}
		capped[i] = d
	}
	refs = mem.OutstandingRefs(capped)
	grants = waterFill(capped, mem.EffectiveCapacity(refs))
	total := 0.0
	for _, g := range grants {
		total += g
	}
	if c := float64(mem.BandwidthPerSocket); c > 0 {
		util = total / c
		if util > 1 {
			util = 1
		}
	}
	return grants, refs, util
}

// waterFill mirrors machine's maxMinFairInto arithmetic (and its
// operation order) exactly.
func waterFill(demands []float64, capacity float64) []float64 {
	alloc := make([]float64, len(demands))
	if capacity <= 0 || len(demands) == 0 {
		return alloc
	}
	satisfied := make([]bool, len(demands))
	remaining := capacity
	unsat := 0
	for i, d := range demands {
		if d <= 0 {
			satisfied[i] = true
		} else {
			unsat++
		}
	}
	for unsat > 0 && remaining > 0 {
		share := remaining / float64(unsat)
		progressed := false
		for i, d := range demands {
			if satisfied[i] {
				continue
			}
			if d <= share {
				alloc[i] = d
				remaining -= d
				satisfied[i] = true
				unsat--
				progressed = true
			}
		}
		if !progressed {
			for i := range demands {
				if !satisfied[i] {
					alloc[i] = share
				}
			}
			remaining = 0
		}
	}
	return alloc
}

// advance mirrors advanceLocked: integrate energy and temperature per
// socket with pre-progress states, progress work, complete finished
// items, then record the step.
func (s *sim) advance(dt time.Duration) {
	secs := dt.Seconds()
	for sock := 0; sock < s.cfg.Sockets; sock++ {
		p := float64(s.cfg.Power.UncoreBase)
		for _, c := range s.coresOf(sock) {
			p += s.corePower(c, s.freqScale[sock])
		}
		p += float64(s.cfg.Power.BandwidthMax) * s.stepUtil[sock]
		p = p * s.cfg.Thermal.LeakageFactorAt(s.temp[sock])
		e := p * secs
		s.energy[sock] += e
		must(s.file.AddPackageEnergy(sock, units.Joules(e)))
		s.temp[sock] = s.cfg.Thermal.Step(s.temp[sock], units.Watts(p), dt)
		s.stepPower[sock] = p
	}
	for _, c := range s.cores {
		switch c.state {
		case stBusy:
			c.remOps -= c.stepOpsRate * secs
			c.remBytes -= c.stepBytesRate * secs
			if c.remOps <= 0.5 && c.remBytes <= 0.5 {
				s.complete(c)
			}
		case stAtomic:
			c.remAtomics -= c.stepOpsRate * secs
			if c.remAtomics <= 1e-6 {
				s.complete(c)
			}
		}
	}

	s.now += dt
	s.record(dt)
}

// complete mirrors completeLocked: zero the work, wake the owner.
func (s *sim) complete(c *rcore) {
	c.remOps, c.remBytes, c.remAtomics = 0, 0, 0
	c.state = stAwake
	c.deadline = 0
	c.line = -1
}

// corePower mirrors PowerParams.corePower.
func (s *sim) corePower(c *rcore, fs float64) float64 {
	pw := s.cfg.Power
	switch c.state {
	case stUnowned:
		return float64(pw.CoreUnowned)
	case stIdleWait:
		return float64(pw.CoreParked)
	case stSpinWait:
		return float64(pw.SpinPower(c.duty, fs))
	case stBusy, stAtomic:
		return float64(pw.BusyPower(c.duty, fs, s.effActiveFrac(c)))
	case stAwake:
		return float64(pw.CoreStall)
	default:
		return float64(pw.CoreUnowned)
	}
}

// effActiveFrac mirrors core.effActiveFrac.
func (s *sim) effActiveFrac(c *rcore) float64 {
	if c.state == stAtomic {
		if c.line >= 0 {
			return s.sc.Lines[c.line].Activity
		}
		return 0.85
	}
	if c.state != stBusy {
		return 0
	}
	return c.work.PowerActivity(c.stepActiveFrac)
}

// record appends the post-step StepRecord, mirroring stepRecordLocked
// (the bandwidth total walks busy cores post-progress, in id order, like
// updateSnapLocked).
func (s *sim) record(dt time.Duration) {
	rec := machine.StepRecord{Now: s.now, Dt: dt, Sockets: make([]machine.SocketStep, s.cfg.Sockets)}
	for sock := range rec.Sockets {
		bw := 0.0
		for _, c := range s.coresOf(sock) {
			if c.state == stBusy {
				bw += c.stepBytesRate
			}
		}
		rec.Sockets[sock] = machine.SocketStep{
			Energy:      s.energy[sock],
			Power:       s.stepPower[sock],
			Temperature: float64(s.temp[sock]),
			Refs:        s.stepRefs[sock],
			Util:        s.stepUtil[sock],
			Bandwidth:   bw,
			FreqScale:   s.freqScale[sock],
			RAPLCounter: s.file.PackageEnergyCounter(sock),
		}
	}
	s.res.Steps = append(s.res.Steps, rec)
}

// fireTickers mirrors fireTickersLocked: every due ticker fires once, in
// registration order, against the post-step state, then re-arms one period ahead (coalescing
// overshot deadlines). One pass suffices: re-armed deadlines are always
// past now.
func (s *sim) fireTickers() {
	for _, tk := range s.tickers {
		if tk.next > s.now {
			continue
		}
		last := s.res.Steps[len(s.res.Steps)-1]
		f := TickerFire{Now: s.now, Sockets: make([]machine.SocketStep, len(last.Sockets))}
		for i, ss := range last.Sockets {
			f.Sockets[i] = machine.SocketStep{
				Energy:      ss.Energy,
				Power:       ss.Power,
				Temperature: ss.Temperature,
				Refs:        ss.Refs,
				Util:        ss.Util,
				Bandwidth:   ss.Bandwidth,
			}
		}
		s.res.Tickers[tk.slot] = append(s.res.Tickers[tk.slot], f)
		s.res.Order = append(s.res.Order, tk.slot)
		if tk.fires++; tk.op.Scale > 0 {
			s.reqScale[tk.op.Socket] = machine.ClampFrequencyScale(tk.op.tickerScale(tk.fires))
		}
		tk.next += tk.period
		if tk.next <= s.now {
			n := (s.now-tk.next)/tk.period + 1
			tk.next += time.Duration(n) * tk.period
		}
	}
}

// must panics on a register-file error, which only an index bug in the
// reference engine itself can cause.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

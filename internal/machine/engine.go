package machine

import (
	"fmt"
	"math"
	"time"

	"repro/internal/units"
)

// never is a sentinel "no deadline" duration.
const never = time.Duration(math.MaxInt64)

// engine steps a clock no blocking owner steps (CoreCtx.block steps
// inline): after a Hold release, a Kick, a Release, an AddTicker or a
// WhenQuiescent. It waits otherwise, and exits once the machine is stopped
// and no stepper is left. It never sleeps in host time: a clock only
// tickers drive runs as fast as the host steps it, so whoever wants it to
// wait parks it with Hold. docs/engine.md has the execution model.
func (m *Machine) engine() {
	defer close(m.engineDone)
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if !m.stopped && m.running == 0 && !m.stepping {
			m.stepAsLocked(nil)
		}
		if m.stopped && !m.stepping {
			return
		}
		m.engCond.Wait()
	}
}

// stepAsLocked runs the stepping loop as self (nil: the engine goroutine)
// under the stepping claim, which the caller found free, and reports
// whether self was resumed. A loop that stopped with nobody resumed, or on
// a stopped machine, broadcasts for WhenQuiescent, Stop and the engine.
func (m *Machine) stepAsLocked(self *core) bool {
	m.stepping = true
	resumed := m.stepLocked(self)
	m.stepping = false
	if m.running == 0 || m.stopped {
		m.engCond.Broadcast()
	}
	return resumed
}

// stepLocked is the stepping loop: while nothing runs it passes the baton
// to the lowest-numbered woken owner, or else wakes the waiters that are
// due, or else advances virtual time one step. It returns once it has
// resumed an owner — true when that owner is self, whose charging call
// then returns without touching its wake channel — or once time cannot
// advance. The lock is dropped only inside ticker callbacks; the stepping
// claim keeps a core enrolled meanwhile from starting a second loop.
func (m *Machine) stepLocked(self *core) bool {
	for !m.stopped && m.running == 0 {
		if len(m.runQ) > 0 {
			c := m.runQ[0]
			m.runQ = removeCore(m.runQ, c)
			m.running++
			if c == self {
				return true
			}
			c.wake <- c.msg // the buffer of one is free: c's owner is parked on it, or about to be
			return false
		}
		// Every enrolled core is blocked in a charging call. First wake
		// any waiter whose condition is already satisfied.
		if m.wakeReadyLocked() {
			continue
		}
		// Quiescent. A Hold parks the clock here — zero-time activity
		// (wakes on satisfied conditions, enrolment, task pickup) still
		// proceeds above, but time never advances and tickers never fire
		// until the hold is released — and an outsider waiting in
		// WhenQuiescent gets its turn before time moves on.
		if m.held > 0 || m.outsiders > 0 {
			return false
		}
		m.applyFrequencyRequestsLocked()
		dt, ok := m.planStepLocked()
		if !ok {
			// Only condition waits remain, or planning aborted the
			// machine: wait for a Kick or a state change.
			return false
		}
		m.advanceLocked(dt)
		m.fireTickersLocked()
		m.wakeReadyLocked()
		if m.cfg.VirtualTimeLimit > 0 && m.now > m.cfg.VirtualTimeLimit {
			m.abortLocked(fmt.Errorf("machine: virtual time %v exceeded watchdog limit %v", m.now, m.cfg.VirtualTimeLimit))
		}
	}
	return false
}

// wakeReadyLocked wakes every waiting core whose condition is true or
// whose deadline has been reached. It reports whether any core was woken.
// Conditions are arbitrary host functions, so the cores carrying one
// (m.condWaiters) are polled each pass; pure deadline sleeps cost nothing
// until the deadline heap's front comes due.
func (m *Machine) wakeReadyLocked() bool {
	woke := false
	for i := 0; i < len(m.condWaiters); {
		c := m.condWaiters[i]
		if c.cond() {
			m.wakeLocked(c, wakeMsg{condMet: true}) // removes condWaiters[i]
			woke = true
			continue
		}
		i++
	}
	for len(m.dlHeap) > 0 && m.now >= m.dlHeap[0].deadline {
		m.wakeLocked(m.dlHeap[0], wakeMsg{})
		woke = true
	}
	return woke
}

// wakeLocked ends a blocked core's charging call: the core is marked
// running and queued, with the message its owner will resume on, behind
// every woken core of a lower id. The stepper resumes the queue one owner
// at a time (stepLocked), so however many cores an instant wakes, their
// host code runs as one sequential program in core-id order.
func (m *Machine) wakeLocked(c *core, msg wakeMsg) {
	m.unindexBlockedLocked(c)
	c.state = coreRunning
	c.cond = nil
	c.deadline = 0
	c.msg = msg
	m.runQ = insertCore(m.runQ, c)
}

// planStepLocked returns the length of the next step: the time to the
// earliest work completion, ticker deadline or wait deadline, capped by
// MaxStep while demand exists. It returns ok=false when nothing can
// advance time (pure condition waits).
//
// Only the horizons are computed here, every step, from live values
// (remaining work, the heap fronts, the clock). The rates they divide by
// belong to the plan, which replanLocked recomputes only when m.planValid
// says something it depends on changed (docs/engine.md §Plan reuse).
func (m *Machine) planStepLocked() (dt time.Duration, ok bool) {
	if !m.planValid && !m.replanLocked() {
		return 0, false
	}
	earliest := never
	hasDemand := m.totBusy > 0 || m.totAtomic > 0

	for sock := range m.socks {
		for _, c := range m.socks[sock].busy {
			t := never
			if c.remOps > 0 && c.stepOpsRate > 0 {
				t = SecondsToDuration(c.remOps / c.stepOpsRate)
			} else if c.remBytes > 0 && c.stepBytesRate > 0 {
				t = SecondsToDuration(c.remBytes / c.stepBytesRate)
			}
			if t == never {
				// A busy core that can make no progress is a model bug
				// (capacity is validated positive).
				m.abortLocked(fmt.Errorf("machine: core %d stalled with no progress possible", c.id))
				return 0, false
			}
			if t < earliest {
				earliest = t
			}
		}
	}
	if m.totAtomic > 0 { // spare the common all-busy step a map iteration
		for _, g := range m.lineGroups {
			for _, c := range g.members {
				if t := SecondsToDuration(c.remAtomics / c.stepOpsRate); t < earliest {
					earliest = t
				}
			}
		}
	}

	// Ticker and wait deadlines: the earliest of each is the front of its
	// min-heap.
	if len(m.tickerHeap) > 0 {
		if d := m.tickerHeap[0].next - m.now; d < earliest {
			earliest = d
		}
	}
	if len(m.dlHeap) > 0 {
		if d := m.dlHeap[0].deadline - m.now; d < earliest {
			earliest = d
		}
	}

	if earliest == never {
		return 0, false
	}
	if hasDemand && earliest > m.cfg.MaxStep {
		earliest = m.cfg.MaxStep
	}
	// Never jump past the watchdog limit: land just beyond it so the
	// post-step check fires before any deadline at or after the limit.
	if m.cfg.VirtualTimeLimit > 0 {
		if rem := m.cfg.VirtualTimeLimit - m.now + time.Nanosecond; rem < earliest {
			earliest = rem
		}
	}
	if earliest < time.Nanosecond {
		earliest = time.Nanosecond
	}
	return earliest, true
}

// replanLocked recomputes the plan: everything a step needs that is a
// pure function of core states, work items, duty cycles, line groups and
// DVFS scales — the per-socket Turbo boost, every busy core's bandwidth
// grant and progress rates, every atomic core's contended service rate,
// each progressing core's cycle rate and the list of those cores, and per
// socket the power sum before leakage and the granted-bandwidth total. It
// sets m.planValid; the choke points that change any of those inputs
// clear it. It reports false after aborting the machine on a zero atomic
// rate.
//
// It reads the incremental indexes (busy lists, line groups) for the
// rates and walks each socket's cores once for the power sum, as the
// per-step integration used to.
func (m *Machine) replanLocked() bool {
	// Per-socket Turbo boost from current occupancy (busy + atomic
	// cores); constant until occupancy changes.
	for sock := range m.socks {
		m.stepBoost[sock] = m.cfg.Turbo.BoostFor(m.socks[sock].occupied(), m.cfg.CoresPerSocket)
	}

	// Memory-contended busy cores, socket by socket. The busy lists are
	// id-ordered, so demand vectors match the order the old full scans
	// produced and the allocator's arithmetic is unchanged.
	for sock := range m.socks {
		busy := m.socks[sock].busy
		m.stepBandwidth[sock] = 0
		if len(busy) == 0 {
			m.stepRefs[sock] = 0
			m.stepUtil[sock] = 0
			continue
		}
		demands := m.demandScratch[:0]
		for _, c := range busy {
			demands = append(demands, c.bwDemand(m.cfg, m.freqScale[sock]*m.stepBoost[sock]))
		}
		m.demandScratch = demands[:0]
		grants, refs, util := m.cfg.Mem.allocateInto(demands, &m.allocScratch)
		m.stepRefs[sock] = refs
		m.stepUtil[sock] = util
		for i, c := range busy {
			c.stepCycleRate = float64(m.cfg.BaseFreq) * c.duty * m.freqScale[sock] * m.stepBoost[sock]
			c.stepOpsRate, c.stepBytesRate, c.stepActiveFrac = c.work.Rates(c.stepCycleRate, grants[i])
			m.stepBandwidth[sock] += c.stepBytesRate
		}
	}

	// Atomic (contended cache line) cores, grouped by line. Service is
	// serialized across the group and each operation's cost grows with
	// the number of contenders (coherence ping-pong). The groups are
	// maintained incrementally at state transitions.
	for line, g := range m.lineGroups {
		k := float64(len(g.members))
		for _, c := range g.members {
			c.stepCycleRate = float64(m.cfg.BaseFreq) * c.duty * m.freqScale[c.socket] * m.stepBoost[c.socket]
			c.stepOpsRate = AtomicRate(c.stepCycleRate, line.costCycles, line.pingpong, k)
			if c.stepOpsRate <= 0 {
				m.abortLocked(fmt.Errorf("machine: core %d atomic rate is zero", c.id))
				return false
			}
		}
	}

	// Socket power before the leakage factor. Every core contributes
	// power whatever its state, so this walks each socket's contiguous
	// core range once (in id order — the same summation order as ever).
	// Spinners progress nothing but their cycle counter, at the unboosted
	// clock.
	m.stepProgress = m.stepProgress[:0]
	for sock := range m.socks {
		fs := m.freqScale[sock] * m.stepBoost[sock]
		p := m.cfg.Power.UncoreBase
		for _, c := range m.coresOf(sock) {
			p += m.cfg.Power.corePower(c.state, c.duty, fs, c.effActiveFrac())
			switch c.state {
			case coreSpinWait:
				c.stepCycleRate = float64(m.cfg.BaseFreq) * c.duty * m.freqScale[sock]
				fallthrough
			case coreBusy, coreAtomic:
				m.stepProgress = append(m.stepProgress, c)
			}
		}
		p += m.cfg.Power.BandwidthMax * units.Watts(m.stepUtil[sock])
		m.stepBasePower[sock] = p
	}
	m.planValid = true
	return true
}

// advanceLocked moves virtual time forward by dt: integrates energy and
// temperature with the plan's power and rates (constant across the step
// by construction), progresses work, and wakes cores whose work
// completed. What depends on live state — the leakage factor of the
// current temperature, the energy and RAPL counters, every core's
// remaining work — is computed here, every step.
func (m *Machine) advanceLocked(dt time.Duration) {
	secs := dt.Seconds()
	decay := m.maxStepDecay
	if dt != m.cfg.MaxStep {
		if dt != m.decayDt {
			m.decayDt, m.decay = dt, m.cfg.Thermal.decay(dt)
		}
		decay = m.decay
	}

	for sock := 0; sock < m.cfg.Sockets; sock++ {
		p := units.Watts(float64(m.stepBasePower[sock]) * m.cfg.Thermal.LeakageFactorAt(m.temp[sock]))
		e := float64(p) * secs
		m.energy[sock] += e
		if err := m.msrFile.AddPackageEnergy(sock, units.Joules(e)); err != nil {
			panic(err) // socket indices are internally consistent
		}
		m.temp[sock] = m.cfg.Thermal.relax(m.temp[sock], p, decay)
		m.stepPower[sock] = p
	}
	// Mirror temperatures into IA32_THERM_STATUS once cumulative drift
	// since the last flush exceeds the register's useful resolution.
	for sock := range m.temp {
		if math.Abs(float64(m.temp[sock]-m.flushedTemp[sock])) > 0.25 {
			m.flushThermLocked()
			break
		}
	}

	// Progress work and cycle counters; wake completed cores. This walks
	// the plan's own list (not the mutable busy lists) because
	// completions unindex cores mid-loop.
	for _, c := range m.stepProgress {
		switch c.state {
		case coreBusy:
			hadBytes := c.remBytes > 0
			c.remOps -= c.stepOpsRate * secs
			c.remBytes -= c.stepBytesRate * secs
			c.cycles += c.stepCycleRate * secs
			if c.remOps <= 0.5 && c.remBytes <= 0.5 {
				m.completeLocked(c)
			} else if hadBytes && c.remBytes <= 0 {
				// The traffic ran out before the cycles did: the core's
				// bandwidth demand drops to zero, so the plan is stale.
				m.planValid = false
			}
		case coreAtomic:
			c.remAtomics -= c.stepOpsRate * secs
			c.cycles += c.stepCycleRate * secs
			if c.remAtomics <= 1e-6 {
				m.completeLocked(c)
			}
		case coreSpinWait:
			c.cycles += c.stepCycleRate * secs
		}
	}

	m.now += dt
	m.updateSnapLocked()
	if m.stepHook != nil {
		m.stepHook(m.stepRecordLocked(dt))
	}
}

// coresOf returns socket sock's cores, which are contiguous (and
// id-ordered) in m.cores.
func (m *Machine) coresOf(sock int) []*core {
	return m.cores[sock*m.cfg.CoresPerSocket : (sock+1)*m.cfg.CoresPerSocket]
}

// completeLocked finishes a core's current work item and resumes its
// owner.
func (m *Machine) completeLocked(c *core) {
	c.remOps, c.remBytes, c.remAtomics = 0, 0, 0
	if err := m.msrFile.AddCoreCycles(c.id, c.cycles); err != nil {
		panic(err) // core ids are internally consistent
	}
	c.cycles = 0
	m.wakeLocked(c, wakeMsg{}) // unindexes first, so c.line must still be set
	c.line = nil
}

// fireTickersLocked runs every ticker whose deadline has arrived, passing
// each the same post-step snapshot (a reused buffer — see TickerFunc).
//
// Step planning never advances past a pending ticker deadline (the heap
// front bounds every step, and AddTicker kicks a re-plan), so each due
// ticker fires exactly once per crossed deadline. If a step nonetheless
// overshoots several periods, the missed deadlines are coalesced into the
// single fire and counted on the ticker rather than replayed against one
// stale snapshot.
//
// Callbacks run with the machine lock released so they may call
// non-blocking Machine methods — in particular RemoveTicker, including on
// themselves. Virtual time cannot move meanwhile (the stepper is the one
// here, and its claim keeps any other from starting), so the snapshot
// stays consistent for the duration of the fire. After each callback the loop revalidates against the heap: the
// fired ticker is re-armed only if it is still registered (heapIdx >= 0),
// and the sweep stops if the machine was stopped.
func (m *Machine) fireTickersLocked() {
	if len(m.tickerHeap) == 0 || m.tickerHeap[0].next > m.now {
		return
	}
	m.tickSnap.Now = m.lastSnap.Now
	if len(m.tickSnap.Sockets) != len(m.lastSnap.Sockets) {
		m.tickSnap.Sockets = make([]SocketSnapshot, len(m.lastSnap.Sockets))
	}
	copy(m.tickSnap.Sockets, m.lastSnap.Sockets)
	for len(m.tickerHeap) > 0 && m.tickerHeap[0].next <= m.now {
		tk := m.tickerHeap[0]
		m.mu.Unlock()
		tk.fn(m.now, &m.tickSnap)
		m.mu.Lock()
		if m.stopped {
			return
		}
		if tk.heapIdx < 0 {
			continue // removed during its own callback
		}
		tk.next += tk.period
		if tk.next <= m.now {
			// Overshoot: coalesce the deadlines this step skipped.
			n := (m.now-tk.next)/tk.period + 1
			tk.coalesced += uint64(n)
			tk.next += time.Duration(n) * tk.period
		}
		m.tkFixLocked(tk.heapIdx)
	}
}

// updateSnapLocked refreshes the cached instantaneous snapshot from the
// values computed in the current step.
func (m *Machine) updateSnapLocked() {
	if len(m.lastSnap.Sockets) != m.cfg.Sockets {
		m.lastSnap.Sockets = make([]SocketSnapshot, m.cfg.Sockets)
	}
	m.lastSnap.Now = m.now
	for sock := 0; sock < m.cfg.Sockets; sock++ {
		if !m.planValid {
			// A busy list changed since the plan totalled the grants
			// (typically a completion in the step just taken): total
			// again over the cores still busy.
			grantTotal := 0.0
			for _, c := range m.socks[sock].busy {
				grantTotal += c.stepBytesRate
			}
			m.stepBandwidth[sock] = grantTotal
		}
		m.lastSnap.Sockets[sock] = SocketSnapshot{
			Power:                m.stepPower[sock],
			Energy:               units.Joules(m.energy[sock]),
			Temperature:          m.temp[sock],
			OutstandingRefs:      m.stepRefs[sock],
			Bandwidth:            units.BytesPerSecond(m.stepBandwidth[sock]),
			BandwidthUtilization: m.stepUtil[sock],
		}
	}
}

// SecondsToDuration converts seconds to a duration, saturating at the
// largest one, the engine's "no deadline".
func SecondsToDuration(s float64) time.Duration {
	if s <= 0 {
		return 0
	}
	if s >= float64(never)/float64(time.Second) {
		return never
	}
	return time.Duration(s * float64(time.Second))
}

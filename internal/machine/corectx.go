package machine

import (
	"fmt"
	"time"

	"repro/internal/msr"
)

// CoreCtx is a worker goroutine's handle on the simulated core it has
// enrolled on. All methods must be called from the owning goroutine.
//
// Blocking methods (Execute, Atomic, the waits) panic with Abort when the
// machine is stopped or aborted while the call is in flight; worker loops
// are expected to recover Abort and unwind.
type CoreCtx struct {
	m *Machine
	c *core
}

// Socket returns the socket that owns this core.
func (x *CoreCtx) Socket() int { return x.c.socket }

// block performs the standard transition out of host code: setup runs
// under the machine lock with the core still in coreRunning, then the call
// waits until this owner is resumed — woken and at the front of the run
// queue. The owner that lets the last running core go, with no other
// stepper active, steps the clock itself until it resumes an owner; when
// that owner is itself the call returns without a goroutine switch.
func (x *CoreCtx) block(setup func(c *core)) wakeMsg {
	m := x.m
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		panic(Abort{Err: ErrStopped})
	}
	if x.c.state != coreRunning {
		state := x.c.state
		m.mu.Unlock()
		panic(fmt.Sprintf("machine: core %d charging call in state %d (concurrent use of CoreCtx?)", x.c.id, state))
	}
	setup(x.c)
	m.indexBlockedLocked(x.c)
	m.running--
	if m.running == 0 && !m.stepping && m.stepAsLocked(x.c) {
		msg := x.c.msg // never an abort: those go down the wake channel
		m.mu.Unlock()
		return msg
	}
	m.mu.Unlock()
	msg := <-x.c.wake
	if msg.abort != nil {
		panic(Abort{Err: msg.abort})
	}
	return msg
}

// Yield charges nothing: the core stays running, but its owner goes to the
// baton queue and resumes, at the same virtual instant, after every queued
// owner of a lower core id has run and blocked. Enroll orders nothing —
// a newly enrolled core runs at once, beside whoever else is running — so
// a runtime whose owners share host state has each of them yield before
// it first touches that state.
func (x *CoreCtx) Yield() {
	x.block(func(c *core) {
		c.msg = wakeMsg{}
		x.m.runQ = insertCore(x.m.runQ, c)
	})
}

// Execute charges one work item to the core and blocks until the machine
// has executed it in virtual time. Zero-valued work returns immediately.
func (x *CoreCtx) Execute(w Work) {
	if w.Ops <= 0 && w.Bytes <= 0 {
		return
	}
	w = w.Clamped()
	x.block(func(c *core) {
		c.state = coreBusy
		c.work = w
		c.remOps = w.Ops
		c.remBytes = w.Bytes
	})
}

// Compute charges pure compute cycles.
func (x *CoreCtx) Compute(ops float64) { x.Execute(Work{Ops: ops}) }

// Atomic charges n serialized operations on a contended cache line. Cost
// per operation grows with the number of cores concurrently operating on
// the same line (coherence ping-pong).
func (x *CoreCtx) Atomic(line *Line, n float64) {
	if line == nil {
		panic("machine: Atomic on nil line")
	}
	if n <= 0 {
		return
	}
	x.block(func(c *core) {
		c.state = coreAtomic
		c.line = line
		c.remAtomics = n
	})
}

// SpinUntil spins the core (at its current duty cycle, drawing spin power)
// until cond returns true. cond is evaluated by the engine under the
// machine lock: it must be fast, non-blocking, and must not call Machine
// or CoreCtx methods; reading atomics is the intended pattern.
func (x *CoreCtx) SpinUntil(cond func() bool) {
	if cond() {
		return
	}
	x.block(func(c *core) {
		c.state = coreSpinWait
		c.cond = cond
	})
}

// SpinFor spins the core until cond returns true or d of virtual time has
// passed, whichever is first. It reports whether cond was satisfied. This
// is the building block of spin-then-park idle loops.
func (x *CoreCtx) SpinFor(cond func() bool, d time.Duration) bool {
	if cond() {
		return true
	}
	if d <= 0 {
		return false
	}
	deadline := x.m.Now() + d
	msg := x.block(func(c *core) {
		c.state = coreSpinWait
		c.cond = cond
		c.deadline = deadline
	})
	return msg.condMet
}

// IdleUntil parks the core (deep idle, near-zero power) until cond returns
// true. The same restrictions on cond apply as for SpinUntil.
func (x *CoreCtx) IdleUntil(cond func() bool) {
	if cond() {
		return
	}
	x.block(func(c *core) {
		c.state = coreIdleWait
		c.cond = cond
	})
}

// Sleep parks the core for a fixed amount of virtual time.
func (x *CoreCtx) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	deadline := x.m.Now() + d
	x.block(func(c *core) {
		c.state = coreIdleWait
		c.deadline = deadline
	})
}

// SetDutyLevel writes the core's clock-modulation register: the core runs
// at level/32 of nominal frequency (level in [1, 32]). This is the
// low-overhead per-core mechanism the paper uses instead of DVFS (§IV).
func (x *CoreCtx) SetDutyLevel(level int) {
	m := x.m
	m.mu.Lock()
	defer m.mu.Unlock()
	enable := level < msr.DutyLevels
	if err := m.msrFile.SetCoreDuty(x.c.id, enable, level); err != nil {
		panic(err) // core id is valid by construction
	}
	d, err := m.msrFile.CoreDuty(x.c.id)
	if err != nil {
		panic(err)
	}
	x.c.duty = d
	m.markPlanLocked(x.c.socket)
}

// FullDuty restores the core to full speed.
func (x *CoreCtx) FullDuty() { x.SetDutyLevel(msr.DutyLevels) }

// Release returns the core to the unowned (deep C-state) pool. The CoreCtx
// must not be used afterwards. Releasing on a stopped machine is a no-op.
func (x *CoreCtx) Release() {
	m := x.m
	m.mu.Lock()
	defer m.mu.Unlock()
	if x.c.state == coreUnowned {
		return
	}
	if x.c.state != coreRunning {
		// Can only happen on misuse from a second goroutine.
		panic(fmt.Sprintf("machine: Release of core %d in state %d", x.c.id, x.c.state))
	}
	if err := m.msrFile.SetCoreDuty(x.c.id, false, 0); err != nil {
		panic(err)
	}
	x.c.duty = 1
	x.c.state = coreUnowned
	m.markPlanLocked(x.c.socket)
	m.running--
	m.engCond.Broadcast()
}

package qthreads

import (
	"time"

	"repro/internal/machine"
)

// worker is one scheduler thread pinned to a simulated core.
type worker struct {
	id       int
	rt       *Runtime
	ctx      *machine.CoreCtx
	shepherd *shepherd
}

// run is the worker main loop: gate on the throttle, find work, execute,
// or park when idle.
func (w *worker) run() {
	defer w.rt.wg.Done()
	defer w.ctx.Release()
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(machine.Abort); ok {
				w.rt.abortOnce.Do(func() { close(w.rt.aborted) })
				return
			}
			panic(r)
		}
	}()
	rt := w.rt
	// New enrolled this core running beside its siblings; queue for the
	// baton so the first scheduler passes happen one worker at a time.
	w.ctx.Yield()
	for {
		if rt.shutdown.Load() {
			return
		}
		if !w.acquireSlot() {
			return // shutdown observed while throttled
		}
		t := w.findWork()
		if t == nil {
			w.releaseSlot()
			// Spin briefly (cheap wakeup for imminent work), then park in
			// deep idle — the spin-then-park policy of OpenMP runtimes.
			// In SpinOnlyIdle mode (Qthreads/MAESTRO behaviour) keep
			// spinning at full power instead.
			if rt.cfg.SpinOnlyIdle {
				w.ctx.SpinUntil(rt.workAvailable)
			} else if !w.ctx.SpinFor(rt.workAvailable, idleSpinPeriod) {
				w.trace(EvPark)
				w.ctx.IdleUntil(rt.workAvailable)
				w.trace(EvUnpark)
			}
			continue
		}
		w.execute(t)
		w.releaseSlot()
	}
}

// acquireSlot is the MAESTRO thread-initiation hook (paper §IV): a worker
// claims an active slot in its shepherd before looking for work. When
// throttling is active and the shepherd already runs its limit of active
// workers, the worker spins in a low-power (duty-cycle 1/32) loop until
// one of the paper's wake conditions: throttling deactivation,
// application completion / shutdown, parallel-phase termination (epoch
// bump), or — to avoid starvation — an active slot opening up. Returns
// false on shutdown.
func (w *worker) acquireSlot() bool {
	rt := w.rt
	for {
		if rt.shutdown.Load() {
			return false
		}
		if !rt.throttleOn.Load() {
			w.shepherd.active.Add(1)
			return true
		}
		limit := rt.throttleLimit.Load()
		cur := w.shepherd.active.Load()
		if cur < limit {
			if w.shepherd.active.CompareAndSwap(cur, cur+1) {
				return true
			}
			continue // lost the race; retry
		}
		met := rt.met
		met.throttleStops.Inc()
		w.trace(EvThrottleEnter)
		entryEpoch := rt.epoch.Load()
		var parkStart time.Duration
		if met.throttleParkNS != nil {
			parkStart = rt.m.Now()
		}
		w.ctx.SetDutyLevel(throttleDutyLevel)
		w.ctx.SpinUntil(func() bool {
			return rt.shutdown.Load() ||
				!rt.throttleOn.Load() ||
				rt.epoch.Load() != entryEpoch ||
				w.shepherd.active.Load() < rt.throttleLimit.Load()
		})
		w.ctx.FullDuty()
		if met.throttleParkNS != nil {
			// Virtual time parked at 1/32 duty — the mechanism's footprint.
			parked := uint64(rt.m.Now() - parkStart)
			met.throttleParkNS.Add(parked)
			met.shepherdParkNS[w.shepherd.id].Add(parked)
		}
		w.trace(EvThrottleExit)
	}
}

// releaseSlot returns the worker's active slot.
func (w *worker) releaseSlot() {
	w.shepherd.active.Add(-1)
}

// findWork pops locally (LIFO) and falls back to stealing from other
// shepherds (FIFO), charging the scheduler costs to this core.
func (w *worker) findWork() *taskItem {
	rt := w.rt
	met := rt.met
	if t := w.shepherd.pop(); t != nil {
		rt.queued.Add(-1)
		met.localPops.Inc()
		w.chargeSched(dequeueCost)
		return t
	}
	n := len(rt.shepherds)
	for i := 1; i < n; i++ {
		sh := rt.shepherds[(w.shepherd.id+i)%n]
		if t := sh.stealFrom(); t != nil {
			rt.queued.Add(-1)
			met.steals.Inc()
			w.trace(EvSteal)
			w.chargeSched(stealCost)
			return t
		}
		met.stealMisses.Inc()
	}
	return nil
}

// execute runs one task. The caller (worker loop or a helping wait) holds
// an active slot for the duration.
func (w *worker) execute(t *taskItem) {
	w.trace(EvTaskStart)
	tc := TC{w: w}
	t.fn(&tc)
	if t.group != nil {
		t.group.n.Add(-1)
	}
	if t.counted {
		w.rt.pending.Add(-1)
	}
	w.rt.met.tasks.Inc()
	w.trace(EvTaskEnd)
}

// chargeSched charges scheduler overhead cycles to the worker's core.
func (w *worker) chargeSched(cost float64) {
	if cost > 0 {
		w.ctx.Compute(cost)
	}
}

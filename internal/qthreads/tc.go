package qthreads

import (
	"sync/atomic"

	"repro/internal/machine"
)

// TC is the task context handed to every executing task: it provides
// spawning, synchronization and cost charging on the executing core.
// A TC is only valid for the duration of its task and must not be shared
// across goroutines.
type TC struct {
	w        *worker
	children *Group // lazily created on first Spawn
}

// Group tracks a set of spawned tasks for joining.
type Group struct {
	rt *Runtime
	n  atomic.Int64
}

// Runtime returns the runtime executing this task.
func (tc *TC) Runtime() *Runtime { return tc.w.rt }

// Machine returns the underlying simulated machine.
func (tc *TC) Machine() *machine.Machine { return tc.w.rt.m }

// WorkerID returns the executing worker's id (== its core id).
func (tc *TC) WorkerID() int { return tc.w.id }

// Compute charges pure compute cycles to the executing core.
func (tc *TC) Compute(ops float64) { tc.w.ctx.Compute(ops) }

// Stream charges pure memory traffic to the executing core.
func (tc *TC) Stream(bytes float64) { tc.w.ctx.Stream(bytes) }

// Execute charges a mixed work item to the executing core.
func (tc *TC) Execute(w machine.Work) { tc.w.ctx.Execute(w) }

// Atomic charges n contended atomic operations on a shared cache line.
func (tc *TC) Atomic(line *machine.Line, n float64) { tc.w.ctx.Atomic(line, n) }

// Spawn creates a child task of the current task (OpenMP `task`). The
// child is pushed onto the local shepherd's LIFO queue; Sync joins it.
func (tc *TC) Spawn(fn Task) {
	rt := tc.w.rt
	if tc.children == nil {
		tc.children = &Group{rt: rt}
	}
	tc.children.n.Add(1)
	rt.pending.Add(1)
	tc.w.shepherd.push(&taskItem{fn: fn, group: tc.children, counted: true})
	rt.queued.Add(1)
	tc.w.chargeSched(rt.cfg.SpawnCost)
}

// NewGroup creates an explicit task group (OpenMP `taskgroup`).
func (tc *TC) NewGroup() *Group { return &Group{rt: tc.w.rt} }

// Spawn creates a task belonging to this group on the spawner's shepherd.
func (g *Group) Spawn(tc *TC, fn Task) {
	rt := tc.w.rt
	g.n.Add(1)
	rt.pending.Add(1)
	tc.w.shepherd.push(&taskItem{fn: fn, group: g, counted: true})
	rt.queued.Add(1)
	tc.w.chargeSched(rt.cfg.SpawnCost)
}

// Pending returns the number of unfinished tasks in the group.
func (g *Group) Pending() int64 { return g.n.Load() }

// Sync waits for all tasks spawned by the current task (OpenMP
// `taskwait`). While waiting, the worker helps by executing queued tasks;
// when none are available it spins until the group drains.
func (tc *TC) Sync() {
	if tc.children == nil {
		return
	}
	tc.waitGroup(tc.children)
}

// Wait joins an explicit group, helping with queued work meanwhile, and
// marks a parallel-phase boundary on completion (releasing throttled
// spinners, paper §IV: "parallel region termination").
func (g *Group) Wait(tc *TC) {
	tc.waitGroup(g)
	g.rt.BumpEpoch()
}

// waitGroup drains a group with work-stealing help. With nothing to help
// with, the worker spins briefly then parks (spin-then-park, like a
// taskwait past its spin count).
func (tc *TC) waitGroup(g *Group) {
	rt := tc.w.rt
	cond := func() bool {
		return g.n.Load() == 0 || rt.queued.Load() > 0 || rt.shutdown.Load()
	}
	for g.n.Load() > 0 {
		if t := tc.w.findWork(); t != nil {
			tc.w.execute(t)
			continue
		}
		if rt.cfg.SpinOnlyIdle {
			tc.w.ctx.SpinUntil(cond)
		} else if !tc.w.ctx.SpinFor(cond, rt.cfg.IdleSpinPeriod) {
			tc.w.ctx.IdleUntil(cond)
		}
		if rt.shutdown.Load() && g.n.Load() > 0 {
			// Shutdown mid-wait: abandon; worker loop will observe it.
			return
		}
	}
}

// waitAllSpawned blocks (helping) until every transitively spawned task
// has completed — the implicit join at the end of the root "parallel
// region".
func (tc *TC) waitAllSpawned() {
	rt := tc.w.rt
	cond := func() bool {
		return rt.pending.Load() == 0 || rt.queued.Load() > 0 || rt.shutdown.Load()
	}
	for rt.pending.Load() > 0 {
		if t := tc.w.findWork(); t != nil {
			tc.w.execute(t)
			continue
		}
		if rt.cfg.SpinOnlyIdle {
			tc.w.ctx.SpinUntil(cond)
		} else if !tc.w.ctx.SpinFor(cond, rt.cfg.IdleSpinPeriod) {
			tc.w.ctx.IdleUntil(cond)
		}
		if rt.shutdown.Load() && rt.pending.Load() > 0 {
			return
		}
	}
}

// ParallelFor executes body over [0, n) in chunks (OpenMP `parallel for`).
// Chunks are distributed round-robin across shepherds and joined before
// returning; completion bumps the phase epoch (paper: "parallel loop
// termination" wakes throttled spinners). chunk <= 0 selects one chunk
// per worker (static-like scheduling).
func (tc *TC) ParallelFor(n, chunk int, body func(tc *TC, lo, hi int)) {
	if n <= 0 {
		return
	}
	rt := tc.w.rt
	if chunk <= 0 {
		chunk = (n + len(rt.workers) - 1) / len(rt.workers)
		if chunk < 1 {
			chunk = 1
		}
	}
	g := &Group{rt: rt}
	nChunks := 0
	for lo := 0; lo < n; lo += chunk {
		lo := lo
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		g.n.Add(1)
		rt.pending.Add(1)
		sh := rt.shepherds[nChunks%len(rt.shepherds)]
		sh.push(&taskItem{
			fn:      func(tc *TC) { body(tc, lo, hi) },
			group:   g,
			counted: true,
		})
		rt.queued.Add(1)
		nChunks++
	}
	// Loop setup overhead, charged in bulk.
	tc.w.chargeSched(rt.cfg.SpawnCost * float64(nChunks))
	tc.waitGroup(g)
	rt.BumpEpoch()
}

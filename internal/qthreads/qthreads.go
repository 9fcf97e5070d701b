// Package qthreads is a lightweight task runtime modeled on the Qthreads
// library with the Sherwood hierarchical scheduler and the MAESTRO
// extensions (paper §III): worker threads pinned to simulated cores are
// grouped into shepherds (one per socket / last-level cache); tasks and
// parallel-loop chunks go into a shepherd-local LIFO queue (constructive
// cache sharing) with work stealing between shepherds for load balancing.
//
// The MAESTRO hook (§III-A, §IV): at every thread-initiation point — a
// worker looking for a new task or loop chunk — the worker checks the
// runtime's throttle state. If throttling is active and the shepherd
// already has its limit of active workers, the worker parks in a
// duty-cycle-throttled spin loop until throttling deactivates, the
// current parallel phase terminates, or the runtime shuts down.
//
// Workloads charge their execution costs through the TC (task context)
// onto the simulated core they run on, so scheduling, contention and
// throttling effects on time and energy all emerge from the machine
// model.
package qthreads

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/machine"
	"repro/internal/telemetry"
)

// Scheduler costs and timings. The costs are cycles in the
// hundreds-of-cycles range measured for lightweight tasking runtimes.
const (
	// spawnCost is charged to the spawning core per task enqueue
	// (allocation, queue push).
	spawnCost = 220
	// dequeueCost is charged per successful local pop.
	dequeueCost = 120
	// stealCost is charged per steal attempt (hit or miss).
	stealCost = 550
	// idleSpinPeriod is how long an idle worker spins before parking
	// (spin-then-park, like OMP_WAIT_POLICY / GOMP_SPINCOUNT).
	idleSpinPeriod = 100 * time.Microsecond
	// throttleDutyLevel is the clock-modulation level (of 32) used for
	// throttled spin loops. The paper uses the minimum, 1/32.
	throttleDutyLevel = 1
)

// Config tunes the runtime.
type Config struct {
	// Workers is the number of worker threads. Defaults to all cores;
	// fewer are spread across the sockets round-robin (see coreFor).
	Workers int
	// SpinOnlyIdle keeps idle and waiting workers spinning instead of
	// parking after idleSpinPeriod. The paper's Qthreads/MAESTRO runtime
	// behaves this way — its fixed-16 runs draw ~10 W more than the same
	// binaries under a parking OpenMP runtime (compare Table IV's
	// 155.9 W against Table II's 145.8 W for LULESH) — so the
	// throttling experiments enable it.
	SpinOnlyIdle bool
	// Tracer, when non-nil, observes scheduler events (see trace.go).
	Tracer Tracer
	// Telemetry, when non-nil, receives the runtime's qthreads_* counters
	// (aggregate scheduler activity plus per-shepherd throttled-park
	// time); see docs/observability.md. Recording is atomic-only.
	Telemetry *telemetry.Registry
}

// Task is a unit of schedulable work. The TC gives it access to spawning,
// synchronization and cost charging on its executing core.
type Task func(tc *TC)

// Runtime is one instantiation of the task runtime over a machine. Create
// with New, run root tasks with RunHeld, tear down with Shutdown.
type Runtime struct {
	m   *machine.Machine
	cfg Config

	shepherds []*shepherd
	workers   []*worker
	wg        sync.WaitGroup

	queued    atomic.Int64  // tasks currently sitting in queues
	pending   atomic.Int64  // spawned tasks not yet completed
	epoch     atomic.Uint64 // bumped at parallel-phase boundaries
	shutdown  atomic.Bool
	aborted   chan struct{} // closed once, by the first worker to catch machine.Abort
	abortOnce sync.Once

	throttleOn    atomic.Bool
	throttleLimit atomic.Int32 // active workers allowed per shepherd

	met *qtMetrics // fixed at New; its instruments are nil when Config.Telemetry is nil

	runMu sync.Mutex // serializes RunHeld calls
}

// New builds a runtime, enrolls its workers on machine cores 0..Workers-1
// and starts them (idle). The caller must Shutdown the runtime before
// stopping the machine.
func New(m *machine.Machine, cfg Config) (*Runtime, error) {
	if cfg.Workers == 0 {
		cfg.Workers = m.Config().Cores()
	}
	if cfg.Workers < 1 || cfg.Workers > m.Config().Cores() {
		return nil, fmt.Errorf("qthreads: Workers = %d, must be in [1, %d]", cfg.Workers, m.Config().Cores())
	}
	rt := &Runtime{m: m, cfg: cfg, aborted: make(chan struct{})}
	rt.throttleLimit.Store(int32(m.Config().CoresPerSocket))

	nShep := m.Config().Sockets
	rt.met = newQTMetrics(cfg.Telemetry, nShep)
	rt.shepherds = make([]*shepherd, nShep)
	for i := range rt.shepherds {
		rt.shepherds[i] = &shepherd{id: i}
	}
	rt.workers = make([]*worker, cfg.Workers)
	for i := range rt.workers {
		ctx, err := m.Enroll(coreFor(i, m.Config()))
		if err != nil {
			// Unwind the workers already started.
			rt.Shutdown()
			return nil, fmt.Errorf("qthreads: enrolling worker %d: %w", i, err)
		}
		w := &worker{
			id:       i,
			rt:       rt,
			ctx:      ctx,
			shepherd: rt.shepherds[ctx.Socket()],
		}
		rt.workers[i] = w
		rt.wg.Add(1)
		go w.run()
	}
	return rt, nil
}

// Machine returns the machine the runtime schedules onto.
func (rt *Runtime) Machine() *machine.Machine { return rt.m }

// Workers returns the number of worker threads.
func (rt *Runtime) Workers() int { return len(rt.workers) }

// ErrAborted is returned by RunHeld when the machine aborted (stopped or
// hit its watchdog) while the root task was in flight.
var ErrAborted = errors.New("qthreads: machine aborted during run")

// RunHeld executes fn as the root task and blocks until it and all tasks
// it transitively spawned have completed. Calls are serialized; each run
// is one "application" execution, and its completion is a parallel-phase
// boundary for throttled workers. The caller parks the machine's clock
// with Machine.Hold before the runtime starts and passes the hold's
// release; RunHeld pins both ends of the run to the virtual timeline:
//
//   - release is invoked as soon as the root task is enqueued, so the
//     engine's next pass wakes the idle workers on the queued-work
//     condition and the run starts at exactly the held instant (the
//     release cannot live inside the task: fetching the task already
//     charges dequeueCost, which needs the clock running);
//   - the completing worker re-parks the clock immediately after the
//     implicit join and wakes the caller, which returns once that
//     worker's trailing host code has blocked too, so the caller reads
//     end-of-run state at exactly the last task's completion time.
//
// The caller waits, without polling, for the join or an abort, whichever
// comes first. The returned end releases the clock again. It is never
// nil: when the runtime is already shut down it is release itself,
// unconsumed, and when the machine aborted it does nothing.
func (rt *Runtime) RunHeld(fn Task, release func()) (end func(), err error) {
	rt.runMu.Lock()
	defer rt.runMu.Unlock()
	if rt.shutdown.Load() {
		return release, errors.New("qthreads: runtime is shut down")
	}
	done := make(chan struct{})
	var endHold func() // written before done is closed
	root := &taskItem{fn: func(tc *TC) {
		fn(tc)
		// Implicit join: the root does not return to the scheduler until
		// everything it transitively spawned has finished.
		tc.waitAllSpawned()
		rt.epoch.Add(1) // application completion is a phase boundary
		endHold = rt.m.Hold()
		close(done) // not reached if the machine aborts the task
	}}
	// Host-side enqueue. It lands while every worker is blocked, so which
	// of them dequeues the root is the engine's id-ordered choice among
	// the woken, not a race against a worker still in a scheduler pass.
	rt.m.WhenQuiescent(func() {
		rt.shepherds[0].push(root)
		rt.queued.Add(1)
	})
	release()
	select {
	case <-done:
	case <-rt.aborted:
		return func() {}, ErrAborted
	}
	rt.m.WhenQuiescent(func() {})
	return endHold, nil
}

// SetThrottle enables or disables concurrency throttling with the given
// per-shepherd active-worker limit. It is safe to call from a machine
// ticker (it only touches atomics), which is exactly how the MAESTRO
// daemon uses it.
func (rt *Runtime) SetThrottle(enabled bool, perShepherdLimit int) {
	if perShepherdLimit < 1 {
		perShepherdLimit = 1
	}
	rt.throttleLimit.Store(int32(perShepherdLimit))
	rt.throttleOn.Store(enabled)
	if enabled {
		rt.met.throttled.Set(1)
	} else {
		rt.met.throttled.Set(0)
	}
}

// BumpEpoch marks a parallel-phase boundary, releasing throttled spinners
// so they can re-evaluate. ParallelFor and Group.Wait call it internally.
func (rt *Runtime) BumpEpoch() { rt.epoch.Add(1) }

// Shutdown stops all workers and releases their cores. It must be called
// before machine.Stop for a clean teardown; calling it twice is safe. The
// flag lands at an instant every worker is blocked (a worker in the middle
// of a work item finishes it first), so all of them see it at once.
func (rt *Runtime) Shutdown() {
	rt.m.WhenQuiescent(func() { rt.shutdown.Store(true) })
	rt.wg.Wait()
}

// workAvailable is the idle-worker wake condition.
func (rt *Runtime) workAvailable() bool {
	return rt.queued.Load() > 0 || rt.shutdown.Load()
}

// coreFor maps a worker index to a machine core. Workers round-robin
// across sockets, matching how the Linux scheduler spreads unbound
// OpenMP threads on a multi-socket node: with 8 of 16 threads, each
// socket runs 4.
func coreFor(i int, mc machine.Config) int {
	socket := i % mc.Sockets
	return socket*mc.CoresPerSocket + i/mc.Sockets
}

package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/rcr"
	"repro/internal/units"
	"repro/internal/workloads"
)

// LockstepFleet is N full-stack nodes and their control plane on one
// virtual clock (docs/cluster.md §Lockstep fleet). Every node is Fleet's
// node minus the socket, assembled with its clock parked and carrying a
// barrier ticker at the poll period; Step lets every node run to its
// next barrier and returns with all of them parked there, at exactly
// k × period. The owner then polls the control plane — aggregators from
// NewSteppedAggregator over Source, actuating through SetCap or
// WriteCap, with Now as their clock — and steps again. Between two
// boundaries the nodes share nothing and at a boundary only the owner
// runs, so a run is a pure function of its inputs.
//
// A node whose goroutine holds its clock between two jobs has simply not
// reached its barrier: Step waits for it and no other node runs ahead.
// A node whose jobs are done idles on (core.System.Idle) — sampler
// ticking, heartbeat moving — until the owner stops stepping; the
// barrier is what keeps its ticker-only clock from running ahead. The
// scenario runner's applyAuditor sits on the seam where caps land.
type LockstepFleet struct {
	period  time.Duration
	k       int64 // boundaries reached
	nodes   []*lockstepNode
	auditor *applyAuditor

	started bool
	err     error         // first node failure; Step keeps returning it
	arrive  chan arrival  // nodes → Step: parked on the barrier, or failed
	quit    chan struct{} // closed by Close: barriers stop parking
	wg      sync.WaitGroup
}

type lockstepNode struct {
	*fleetNode
	resume chan struct{} // Step → barrier
	parked bool          // on the barrier, as far as Step has been told

	// Written by the node's goroutine between jobs, with the clock held;
	// read by the owner while the node is parked on a later barrier.
	joules   units.Joules
	busy     time.Duration
	finished bool
}

type arrival struct {
	node int
	err  error
}

// NewLockstepFleet assembles cfg.Shards nodes (cfg.Dir is unused) with
// every clock parked at zero. period is the barrier and so the control
// plane's poll period; budget is what the auditor holds Σ applied caps
// against. Start hands the nodes their work.
func NewLockstepFleet(cfg FleetConfig, period time.Duration, budget units.Watts) (*LockstepFleet, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.InitialCap <= 0 {
		cfg.InitialCap = 1000
	}
	f := &LockstepFleet{
		period: period,
		arrive: make(chan arrival, 2*cfg.Shards), // a barrier and a failure per node at most
		quit:   make(chan struct{}),
	}
	f.auditor = &applyAuditor{
		global:    float64(budget),
		period:    period,
		clock:     f.Now,
		caps:      make([]float64, cfg.Shards),
		lastFence: make([]uint64, cfg.Shards),
		firstSeen: make(map[uint64]time.Duration),
	}
	for i := 0; i < cfg.Shards; i++ {
		node, err := newFleetNode(cfg, f.Now, func(capW float64, fence uint64) { f.auditor.apply(i, capW, fence) })
		if err == nil {
			n := &lockstepNode{fleetNode: node, resume: make(chan struct{})}
			f.nodes = append(f.nodes, n)
			_, err = node.sys.Machine().AddTicker(period, func(time.Duration, *machine.Snapshot) { f.barrier(i, n) })
		}
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("cluster: node %d: %w", i, err)
		}
	}
	return f, nil
}

// barrier runs on node i's stepper (machine.TickerFunc) at every multiple
// of the period: virtual time cannot move while it is parked here. It is
// the one ticker callback that blocks, on purpose — nothing it waits for
// needs that stepper. Once the fleet is closing it neither reports nor
// parks.
func (f *LockstepFleet) barrier(i int, n *lockstepNode) {
	if f.report(arrival{node: i}) {
		select {
		case <-n.resume:
		case <-f.quit:
		}
	}
}

// report tells Step that a node parked or failed; false means the fleet
// is closing and nobody listens.
func (f *LockstepFleet) report(a arrival) bool {
	select {
	case <-f.quit:
		return false
	default:
	}
	select {
	case f.arrive <- a:
		return true
	case <-f.quit:
		return false
	}
}

// Start gives node i the job list jobs[i] — workloads already Prepared,
// run back to back — and starts the clocks: each list's first region
// opens at virtual time zero, each later one at the instant its
// predecessor completed. An empty list is a node that only idles.
func (f *LockstepFleet) Start(jobs [][]workloads.Workload) error {
	if f.started || len(jobs) != len(f.nodes) {
		return fmt.Errorf("cluster: lockstep fleet of %d nodes started twice or with %d job lists", len(f.nodes), len(jobs))
	}
	f.started = true
	for i, n := range f.nodes {
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			for _, wl := range jobs[i] {
				rep, err := n.sys.RunWorkload(wl)
				if err != nil {
					// The clock stays parked at the instant of the failure
					// until Close.
					f.report(arrival{i, err})
					return
				}
				n.joules += rep.Energy
				n.busy += rep.Elapsed
			}
			n.finished = true
			_ = n.sys.Idle(0) // fails only on a closed System, and Close waits for this goroutine first
		}()
	}
	return nil
}

// Step advances every node to its next barrier and returns with all
// clocks parked there. It returns the first failure of any node — a
// workload that aborted (machine.Config.VirtualTimeLimit, a stopped
// machine) or produced a wrong answer — instead of waiting for a barrier
// that node will never reach; a failed fleet can only be closed. (Nobody
// reports a machine that dies while its node idles. The nodes share one
// VirtualTimeLimit, so a node still working reports it for them; a fleet
// that is Done is not stepped.)
func (f *LockstepFleet) Step() error {
	if f.err == nil && !f.started {
		f.err = errors.New("cluster: lockstep fleet stepped before Start")
	}
	for _, n := range f.nodes {
		if f.err == nil && n.parked {
			n.parked = false
			n.resume <- struct{}{}
		}
	}
	for pending := len(f.nodes); pending > 0 && f.err == nil; pending-- {
		if a := <-f.arrive; a.err != nil {
			f.err = fmt.Errorf("cluster: node %d: %w", a.node, a.err)
		} else {
			f.nodes[a.node].parked = true
		}
	}
	if f.err == nil {
		f.k++
	}
	return f.err
}

// Now is the fleet's clock — boundaries reached × period — and the clock
// of its guards and of the control plane polled on it.
func (f *LockstepFleet) Now() time.Duration { return time.Duration(f.k) * f.period }

// Done reports whether every node has finished its job list: a list
// that completed at or before the boundary just reached counts.
func (f *LockstepFleet) Done() bool {
	for _, n := range f.nodes {
		if !n.finished {
			return false
		}
	}
	return true
}

// System returns node i's full stack.
func (f *LockstepFleet) System(i int) *core.System { return f.nodes[i].sys }

// Usage returns what node i's jobs have cost so far: region energy and
// busy time, summed over the jobs completed by the last boundary. An
// idling node adds to neither.
func (f *LockstepFleet) Usage(i int) (units.Joules, time.Duration) {
	return f.nodes[i].joules, f.nodes[i].busy
}

// Endpoints names the nodes for AggregatorConfig.Shards. Nothing listens
// on the addresses: Source is the transport.
func (f *LockstepFleet) Endpoints() []ShardEndpoint {
	eps := make([]ShardEndpoint, len(f.nodes))
	for i := range eps {
		eps[i] = ShardEndpoint{ID: i, Network: "unix", Addr: fmt.Sprintf("lockstep-%d", i)}
	}
	return eps
}

// Source is the open hook for NewSteppedAggregator: a member's slot
// reads its node's blackboard as of the boundary the fleet is parked on.
func (f *LockstepFleet) Source(mb Member) (SnapshotSource, error) {
	if mb.ID < 0 || mb.ID >= len(f.nodes) {
		return nil, fmt.Errorf("cluster: no node %d", mb.ID)
	}
	bb := f.nodes[mb.ID].sys.Blackboard()
	var snap rcr.Snapshot
	return func() (rcr.Snapshot, error) {
		bb.SnapshotInto(&snap, f.Now())
		return snap, nil
	}, nil
}

// SetCap is the unfenced actuation seam (AggregatorConfig.SetCap).
func (f *LockstepFleet) SetCap(i int, cap units.Watts) error {
	err := f.nodes[i].sys.PowerCapController().SetCap(cap)
	if err == nil {
		f.auditor.apply(i, float64(cap), 0)
	}
	return err
}

// WriteCap is the fenced actuation seam (HAConfig.WriteCap): the write
// is offered to node i's guard in process, which is all Fleet.WriteCap's
// socket round trip amounts to once host time is out of the picture.
func (f *LockstepFleet) WriteCap(i int, w rcr.CapWrite) (rcr.CapAck, error) {
	return f.nodes[i].fence.Offer(w), nil
}

// MarkKill tells the auditor the fleet's leader was killed now; the
// first cap applied under a fence above any a guard holds at this moment
// closes the hand-off.
func (f *LockstepFleet) MarkKill() {
	var fmax uint64
	for _, n := range f.nodes {
		fmax = max(fmax, n.fence.State().Fence)
	}
	f.auditor.kills = append(f.auditor.kills, &killMark{at: f.Now(), fence: fmax})
}

// Audit reports what the auditor has seen at the cap seam: how many
// applies broke an invariant — Σ applied caps over the budget, a fence
// regressing on a node, a cap landing under a long-superseded fence —
// and the MarkKill → first-cap-under-a-higher-fence gaps, in kill order.
func (f *LockstepFleet) Audit() (violations uint64, handoffs []time.Duration) {
	a := f.auditor
	return a.conservation + a.fenceRegress + a.doubleLeader, a.handoffs(f.Now())
}

// Close stops every node wherever it is — parked on a barrier, mid-job,
// idling — and waits for the fleet's goroutines. Idempotent.
func (f *LockstepFleet) Close() {
	select {
	case <-f.quit:
	default:
		close(f.quit)
	}
	// Stopping the machine first aborts a job in flight (its workers
	// unwind, RunWorkload returns); only then can the runtime shut down.
	for _, n := range f.nodes {
		n.sys.Machine().Stop()
	}
	f.wg.Wait()
	for _, n := range f.nodes {
		n.sys.Close()
	}
	f.nodes = nil
}

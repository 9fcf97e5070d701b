package workloads

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/qthreads"
	"repro/internal/rapl"
	"repro/internal/rcr"
)

// RunOnce executes a prepared workload on a fresh qthreads runtime with
// the given worker count, bracketing it in an RCR region exactly as the
// paper instruments its benchmarks (§II-B), and validates the result.
// The machine keeps accumulating energy and temperature across calls;
// callers control warm-up via machine.WarmAll.
func RunOnce(m *machine.Machine, wl Workload, workers int) (rcr.RegionReport, error) {
	reader, err := rapl.NewMSRReader(m.MSR())
	if err != nil {
		return rcr.RegionReport{}, err
	}
	qcfg := qthreads.DefaultConfig()
	qcfg.Workers = workers
	rt, err := qthreads.New(m, qcfg)
	if err != nil {
		return rcr.RegionReport{}, err
	}
	defer rt.Shutdown()
	return RunOnRuntime(rt, reader, nil, wl)
}

// RunOnRuntime executes one measured run of a workload on an existing
// runtime, using the given RAPL reader for the region energy and an
// optional blackboard for temperatures. The caller owns runtime and
// daemon lifecycles, which lets throttling experiments wrap the run with
// a MAESTRO daemon.
func RunOnRuntime(rt *qthreads.Runtime, reader rapl.Reader, bb *rcr.Blackboard, wl Workload) (rcr.RegionReport, error) {
	rep, _, err := RunOnRuntimeHeld(rt, reader, bb, wl, nil)
	return rep, err
}

// RunOnRuntimeHeld is RunOnRuntime for a machine whose clock the caller
// parked with Machine.Hold while assembling the stack. The region opens
// on the parked clock and Runtime.RunHeld pins both ends of the run to
// the virtual timeline (release on enqueue, re-hold at the implicit
// join), so the region closes at exactly the last task's completion
// rather than wherever the engine paced to while the main goroutine woke
// up. Together with per-run seeding and the machine's one-owner-at-a-time
// execution this makes a measurement a pure function of its seed, at any
// worker count.
//
// The clock is handed back the way it was received: parked. What the
// caller does next — read a daemon's counters, shut the runtime down,
// stop the machine — happens at the completion instant and leaves no
// host-timed tail on the timeline or in a scheduler trace. A caller that
// means to keep the machine running calls end, which releases the
// re-hold, or passes it as the next run's release: runs chained that way
// follow each other on the virtual timeline with the host-side work
// between them (closing this region, validating, opening the next)
// costing no virtual time. end is nil when release was (the caller took
// no hold: the run degrades to plain RunOnRuntime semantics with no
// pinned boundaries) or when the run aborted before the join.
func RunOnRuntimeHeld(rt *qthreads.Runtime, reader rapl.Reader, bb *rcr.Blackboard, wl Workload, release func()) (rep rcr.RegionReport, end func(), err error) {
	region, err := rcr.StartRegion(wl.Name(), rt.Machine(), reader, bb)
	if err != nil {
		if release != nil {
			release()
		}
		return rcr.RegionReport{}, nil, err
	}
	end, runErr := rt.RunHeld(wl.Root(), release)
	if runErr != nil {
		return rcr.RegionReport{}, end, fmt.Errorf("workloads: running %s: %w", wl.Name(), runErr)
	}
	if rep, err = region.End(); err != nil {
		return rcr.RegionReport{}, end, err
	}
	if err := wl.Validate(); err != nil {
		return rcr.RegionReport{}, end, fmt.Errorf("workloads: %s produced a wrong answer: %w", wl.Name(), err)
	}
	return rep, end, nil
}

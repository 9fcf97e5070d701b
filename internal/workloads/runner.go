package workloads

import (
	"fmt"

	"repro/internal/qthreads"
	"repro/internal/rapl"
	"repro/internal/rcr"
)

// RunOnRuntimeHeld executes one measured run of a workload on an
// existing runtime whose machine clock the caller parked with
// Machine.Hold, using the given RAPL reader for the region energy and an
// optional blackboard for temperatures. The caller owns runtime and
// daemon lifecycles, which lets throttling experiments wrap the run with
// a MAESTRO daemon.
//
// The region opens on the parked clock and Runtime.RunHeld pins both
// ends of the run to the virtual timeline (release on enqueue, re-hold
// at the implicit join), so the region closes at exactly the last task's
// completion rather than wherever the engine got to while the main
// goroutine woke up. Together with per-run seeding and the machine's
// one-owner-at-a-time execution this makes a measurement a pure function
// of its seed, at any worker count.
//
// The clock is handed back the way it was received: parked. What the
// caller does next — read a daemon's counters, shut the runtime down,
// stop the machine — happens at the completion instant and leaves no
// host-timed tail on the timeline or in a scheduler trace. end releases
// it; passed as the next run's release, runs chained that way follow each
// other on the virtual timeline with the host-side work between them
// (closing this region, validating, opening the next) costing no virtual
// time. end is never nil (see Runtime.RunHeld).
func RunOnRuntimeHeld(rt *qthreads.Runtime, reader rapl.Reader, bb *rcr.Blackboard, wl Prepared, release func()) (rep rcr.RegionReport, end func(), err error) {
	region, err := rcr.StartRegion(wl.Name(), rt.Machine(), reader, bb)
	if err != nil {
		return rcr.RegionReport{}, release, err
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

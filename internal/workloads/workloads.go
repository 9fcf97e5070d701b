// Package workloads defines the benchmark suite of the paper's study:
// locally-written micro-benchmarks (sub-package micro), the Barcelona
// OpenMP Task Suite programs (sub-package bots), and the LULESH
// hydrodynamics mini-app (sub-package lulesh), plus the calibration
// helpers they share. Each algorithm and each calibration formula is
// written once: the micro-benchmarks' n-queens and Fibonacci run the
// bots kernels, and calib.go holds the paper anchor (Anchor), the
// compute-bound and bandwidth-knee calibrations and the knee's fixed
// point (Knee) that lulesh and the dijkstra micro-benchmark solve too.
//
// Every workload is a real algorithm — it sorts real arrays, counts real
// n-queens solutions, factorizes real matrices — run at laptop scale.
// Execution cost is charged to the simulated machine through the task
// context, with per-unit costs calibrated once against the paper's
// 16-thread GCC -O2 measurements (Table I). Each workload's *mechanism*
// — bandwidth saturation, cache-line ping-pong, task-allocation
// contention, serial phases — is chosen from the paper's description of
// why that program scales the way it does; the thread-scaling curves and
// all throttling behaviour then emerge from the machine model rather
// than being scripted.
//
// Prepare does two things of different cost. The input and its serial
// reference are a pure function of what the input depends on (the seed,
// for the sorts and the reduction also the element count, for the BT
// proxy nothing) and may be expensive: a real factorization, a real
// 13-queens count, 45 serial lulesh steps. The BOTS n-queens, sparselu,
// strassen, alignment, sort and health, the micro n-queens, reduction,
// mergesort and dijkstra, the NAS BT proxy and lulesh build them once
// per distinct input through a Memo and share the result read-only
// between instances; every run copies its working state out of it and
// is still validated against it. The calibration (the paper anchor plus
// the charge model) depends on the target and the machine, is cheap,
// and is done by every Prepare for its own instance.
//
// The rule is per task: a task that is a pure function of its own
// arguments reads its result from the reference, because a run that
// computed it again would compare a function against itself, and all
// such a check could catch is a task tree that lost or repeated a task.
// Read from the reference: the n-queens leaves (solutions and nodes,
// keyed by the leaf's board state), the alignment pairs (each pair's
// score), the sort leaves (each block already sorted), the mergesort
// sections (each half already sorted) and the fib leaves (FibValue).
// Those tasks still charge their simulated cost, and Validate still
// catches a lost or repeated one: it counts what the tasks did (search
// nodes, pairs, fib leaves) besides summing their answers, and a sort
// leaf or mergesort section that did not copy leaves its block unsorted,
// since the root copies the unsorted input into the working array first.
// Tasks that read other tasks' output keep computing on the host: the
// sort merge levels, the mergesort root merge, sparselu, strassen,
// health and the lulesh sweeps. Their Validate is what checks Sync
// ordering. The two dense block kernels among them, sparselu's bmod and
// strassen's leaf product, keep eight elements of an output row in
// registers across the k loop; each element still adds its products in
// the plain loop's order, so their results are bit for bit the plain
// loops' (bots.TestBlockKernelsMatchPlainLoops, FuzzBlockKernels).
package workloads

import (
	"fmt"

	"repro/internal/compiler"
	"repro/internal/machine"
	"repro/internal/qthreads"
	"repro/internal/units"
)

// Params configures a workload instance.
type Params struct {
	// MachineConfig is the node the workload will run on; calibration
	// inverts its power model.
	MachineConfig machine.Config
	// Target selects the modeled compiler and optimization level.
	Target compiler.Target
	// Scale multiplies the problem size (1 = the paper's input). The
	// Table V dijkstra experiment uses a larger input than Table I.
	Scale float64
	// Seed makes input generation deterministic.
	Seed int64
}

// WithDefaults fills zero fields.
func (p Params) WithDefaults() Params {
	if p.MachineConfig.Sockets == 0 {
		p.MachineConfig = machine.M620()
	}
	if p.Scale <= 0 {
		p.Scale = 1
	}
	if p.Seed == 0 {
		p.Seed = 42
	}
	return p
}

// Workload is one benchmark program.
type Workload interface {
	// Prepare generates the input with its serial reference and
	// calibrates the charge model for p's target. It must be called
	// before Root.
	Prepare(p Params) error
	Prepared
}

// Prepared is what a measured run calls of a workload that is ready.
type Prepared interface {
	// Name returns the canonical application name (compiler.App*).
	Name() string
	// Root returns the task to hand to qthreads.Runtime.Run. Root may be
	// run multiple times after one Prepare; each run recomputes from the
	// prepared input.
	Root() qthreads.Task
	// Validate checks the most recent run's answer against an
	// independently computed reference, so scheduling bugs surface as
	// wrong results rather than plausible numbers.
	Validate() error
}

// WarmTemp is the die temperature assumed during calibration: the paper
// reports all numbers from a warm machine (§II-C).
const WarmTemp units.Celsius = 68

// SolveActivity inverts the machine power model: it returns the
// Work.Activity that makes a steady parallel phase draw targetNodeWatts,
// given the phase's shape on each socket (busy/parked/unowned cores, the
// bandwidth-limited progress fraction afBW, the overlap credit, and the
// bandwidth utilization). The target is first deflated by the leakage
// factor at WarmTemp, since calibration tables were measured warm.
// The result is clamped to [0.02, 1].
func SolveActivity(cfg machine.Config, targetNodeWatts float64, busyPerSocket, parkedPerSocket, unownedPerSocket int, afBW, overlap, bwUtil float64) float64 {
	if busyPerSocket <= 0 || afBW <= 0 {
		return 1
	}
	perSocket := targetNodeWatts / float64(cfg.Sockets) / cfg.Thermal.LeakageFactorAt(WarmTemp)
	eff := cfg.Power.ActiveFracForPower(units.Watts(perSocket), busyPerSocket, parkedPerSocket, unownedPerSocket, bwUtil)
	a := (eff - overlap*(1-afBW)) / afBW
	if a < 0.02 {
		return 0.02
	}
	if a > 1 {
		return 1
	}
	return a
}

// SolveScale finds s in [lo, hi] such that predict(s) ≈ target, assuming
// predict is monotonically non-decreasing in s. It is used to calibrate
// per-combo compute scales for workloads whose runtime is partially
// bandwidth-bound (where time does not scale linearly with instruction
// count). Returns lo or hi when the target is out of range.
func SolveScale(predict func(s float64) float64, target, lo, hi float64) float64 {
	if predict(lo) >= target {
		return lo
	}
	if predict(hi) <= target {
		return hi
	}
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if predict(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// Lookup fetches the code-generation factors for a workload, wrapping
// the error with the app name.
func Lookup(app string, t compiler.Target) (compiler.CodeGen, error) {
	cg, err := compiler.Lookup(app, t)
	if err != nil {
		return compiler.CodeGen{}, fmt.Errorf("workloads: %s: %w", app, err)
	}
	return cg, nil
}

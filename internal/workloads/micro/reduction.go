// Package micro implements the paper's locally-written micro-benchmarks
// (§II: "simple programs implementing fundamental algorithms... not tuned
// and represent default implementations of generic algorithms"):
// reduction, nqueens, mergesort, fibonacci and dijkstra. Two of them are
// the BOTS algorithms without BOTS' tuning and run package bots' code:
// nqueens is bots.NQueens on a smaller board with a shallower spawn
// depth, and fibonacci runs bots.FibTree with its own leaf charges.
package micro

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"repro/internal/compiler"
	"repro/internal/qthreads"
	"repro/internal/workloads"
)

// Reduction is the naive parallel sum micro-benchmark: every element's
// contribution goes through a critical section on one shared accumulator
// cache line — the classic untuned `omp parallel for` + `critical`
// pattern. Coherence ping-pong on that line makes each additional thread
// *slow the program down*: the paper measures 16 threads at 3.2× the
// serial time with energy rising monotonically (§II-C.4, Figures 1/2).
type Reduction struct {
	data []float64
	want float64
	got  uint64 // float64 bits, updated via CAS

	// Charge model (calibrated in Prepare).
	virtPerElem  float64 // virtual critical sections per real element
	lineCost     float64 // cycles per uncontended critical section
	pingpong     float64 // cost growth per extra contender
	lineActivity float64 // power density while ping-ponging
	chunk        int
}

// Reduction mechanism constants: a ~300-cycle uncontended critical
// section, and a ping-pong factor fitted to the paper's 3.2× slowdown at
// 16 threads: 1 + 15λ = 3.2.
const (
	reductionElems    = 2_000_000
	reductionLineCost = 300
	reductionPingpong = (3.2 - 1) / 15.0
)

// NewReduction creates the workload.
func NewReduction() *Reduction { return &Reduction{} }

// Name returns the canonical app name.
func (r *Reduction) Name() string { return compiler.AppReduction }

// Prepare generates the input and calibrates the charge model.
func (r *Reduction) Prepare(p workloads.Params) error {
	p = p.WithDefaults()
	cg, err := workloads.Lookup(r.Name(), p.Target)
	if err != nil {
		return err
	}
	n := int(reductionElems * p.Scale)
	if n < 1 {
		n = 1
	}
	rng := rand.New(rand.NewSource(p.Seed))
	r.data = make([]float64, n)
	sum := 0.0
	for i := range r.data {
		r.data[i] = rng.Float64()
		sum += r.data[i]
	}
	r.want = sum

	// Timing: T(k) = Nv × cost × (1 + λ(k−1)) / f, anchored at the
	// paper's 16-thread time.
	cfg := p.MachineConfig
	f := float64(cfg.BaseFreq)
	t16, ok := compiler.PaperEntry(r.Name(), compiler.Baseline)
	if !ok {
		return errors.New("micro: reduction missing baseline entry")
	}
	serialSec := t16.Seconds / (1 + reductionPingpong*15) * cg.TimeFactor * p.Scale
	virtTotal := serialSec * f / reductionLineCost
	r.virtPerElem = virtTotal / float64(n)
	r.lineCost = reductionLineCost
	r.pingpong = reductionPingpong

	// Power: all busy cores sit in the atomic state; its activity is the
	// effective fraction that reproduces the measured watts.
	r.lineActivity = workloads.SolveActivity(cfg, cg.TargetWatts,
		cfg.CoresPerSocket, 0, 0, 1, 0, 0)
	r.chunk = 2048
	return nil
}

// Root returns the benchmark body.
func (r *Reduction) Root() qthreads.Task {
	return func(tc *qthreads.TC) {
		line := tc.Machine().NewLine(r.lineCost, r.pingpong, r.lineActivity)
		atomic.StoreUint64(&r.got, 0)
		tc.ParallelFor(len(r.data), r.chunk, func(tc *qthreads.TC, lo, hi int) {
			local := 0.0
			for i := lo; i < hi; i++ {
				local += r.data[i]
			}
			// Every element conceptually passed through the critical
			// section; charge the contended-line cost for all of them.
			tc.Atomic(line, r.virtPerElem*float64(hi-lo))
			for {
				old := atomic.LoadUint64(&r.got)
				next := math.Float64bits(math.Float64frombits(old) + local)
				if atomic.CompareAndSwapUint64(&r.got, old, next) {
					break
				}
			}
		})
	}
}

// Validate checks the sum against the serial reference.
func (r *Reduction) Validate() error {
	got := math.Float64frombits(atomic.LoadUint64(&r.got))
	if math.Abs(got-r.want) > 1e-6*math.Abs(r.want) {
		return fmt.Errorf("reduction: sum = %g, want %g", got, r.want)
	}
	return nil
}

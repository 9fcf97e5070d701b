package micro

import (
	"fmt"
	"math"

	"repro/internal/machine"
	"repro/internal/qthreads"
	"repro/internal/workloads"
)

// BT is a proxy for the NAS Parallel Benchmarks BT.C run the paper uses
// to demonstrate the cold-start effect (§II-C footnote 2: on an
// initially cold system the first run used 3.2% less energy — 24666 J
// vs 25477 J — and lower power — 151.0 W vs 155.8 W — than later runs
// of the same length). BT is a block-tridiagonal ADI solver; this proxy
// runs real alternating-direction sweeps of 5×5 block solves over a 3D
// grid, compute-dense and steady, calibrated to the footnote's warm
// figures (~163 s at ~155.8 W).
//
// BT is not part of the paper's Tables I–III, so it is not in the suite
// registry; the cold-start experiment constructs it directly.
type BT struct {
	n     int // grid edge
	iters int
	grid  []float64 // n³ cells × 5 components
	want  float64   // serial-reference checksum
	got   float64
	ran   bool

	perSweepCycles float64
	activity       float64
	chunk          int
}

// Footnote-2 calibration: 25477 J at 155.8 W is ~163.5 s at 16 threads.
const (
	btGridEdge    = 24
	btIters       = 30
	btWarmSeconds = 163.5
	btWarmWatts   = 155.8
)

// NewBT creates the workload.
func NewBT() *BT { return &BT{} }

// Name returns the benchmark name.
func (b *BT) Name() string { return "nas-bt" }

// Prepare builds the grid, computes the serial reference, and calibrates
// charges.
func (b *BT) Prepare(p workloads.Params) error {
	p = p.WithDefaults()
	b.n = btGridEdge
	b.iters = btIters

	cells := b.n * b.n * b.n
	b.grid = make([]float64, cells*5)
	for i := range b.grid {
		// A smooth deterministic field.
		b.grid[i] = 1 + 0.01*math.Sin(float64(i)*0.001)
	}

	// Serial reference: the checksum after all sweeps.
	ref := append([]float64(nil), b.grid...)
	for it := 0; it < b.iters; it++ {
		for dim := 0; dim < 3; dim++ {
			b.sweepRange(ref, dim, 0, b.lines(dim))
		}
	}
	b.want = checksum(ref)

	cfg := p.MachineConfig
	seconds := btWarmSeconds * p.Scale
	total := seconds * float64(cfg.Cores()) * float64(cfg.BaseFreq)
	sweeps := float64(b.iters * 3 * b.lines(0))
	b.perSweepCycles = total / sweeps
	b.activity = workloads.SolveActivity(cfg, btWarmWatts,
		cfg.CoresPerSocket, 0, 0, 1, 0, 0.1)
	b.chunk = b.lines(0) / 96
	if b.chunk < 1 {
		b.chunk = 1
	}
	return nil
}

// lines returns the number of independent pencil lines along a dimension
// (the unit of parallel work in an ADI sweep).
func (b *BT) lines(int) int { return b.n * b.n }

// sweepRange applies a Thomas-like block relaxation along dim for lines
// [lo, hi). Each line's update depends only on the previous iteration's
// values along that line, so lines are independent and the result is
// schedule-invariant.
func (b *BT) sweepRange(grid []float64, dim, lo, hi int) {
	n := b.n
	stride := [3]int{1, n, n * n}[dim]
	for line := lo; line < hi; line++ {
		// Decompose the line index into the two fixed coordinates.
		a := line % n
		c := line / n
		var base int
		switch dim {
		case 0: // x varies; fixed (y=a, z=c)
			base = (c*n + a) * n
		case 1: // y varies; fixed (x=a, z=c)
			base = c*n*n + a
		default: // z varies; fixed (x=a, y=c)
			base = c*n + a
		}
		// Forward elimination + back substitution over the 5 components.
		prev := [5]float64{}
		for i := 0; i < n; i++ {
			idx := (base + i*stride) * 5
			for ccc := 0; ccc < 5; ccc++ {
				v := grid[idx+ccc]
				v = 0.96*v + 0.02*prev[ccc] + 0.02
				grid[idx+ccc] = v
				prev[ccc] = v
			}
		}
		for i := n - 2; i >= 0; i-- {
			idx := (base + i*stride) * 5
			nxt := (base + (i+1)*stride) * 5
			for ccc := 0; ccc < 5; ccc++ {
				grid[idx+ccc] = 0.98*grid[idx+ccc] + 0.02*grid[nxt+ccc]
			}
		}
	}
}

func checksum(xs []float64) float64 {
	s := 0.0
	for i, v := range xs {
		if i%97 == 0 {
			s += v
		}
	}
	return s
}

// Root returns the benchmark body: per iteration, three parallel ADI
// sweeps with a barrier between dimensions.
func (b *BT) Root() qthreads.Task {
	return func(tc *qthreads.TC) {
		work := append([]float64(nil), b.grid...)
		for it := 0; it < b.iters; it++ {
			for dim := 0; dim < 3; dim++ {
				dim := dim
				tc.ParallelFor(b.lines(dim), b.chunk, func(tc *qthreads.TC, lo, hi int) {
					b.sweepRange(work, dim, lo, hi)
					tc.Execute(machine.Work{
						Ops:      b.perSweepCycles * float64(hi-lo),
						Activity: b.activity,
					})
				})
			}
		}
		b.got = checksum(work)
		b.ran = true
	}
}

// Validate compares the checksum against the serial reference bitwise
// (line updates are independent, so any schedule reproduces it).
func (b *BT) Validate() error {
	if !b.ran {
		return fmt.Errorf("bt: run did not complete")
	}
	if b.got != b.want {
		return fmt.Errorf("bt: checksum %g, want %g", b.got, b.want)
	}
	return nil
}

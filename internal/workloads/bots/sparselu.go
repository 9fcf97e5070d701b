package bots

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/compiler"
	"repro/internal/machine"
	"repro/internal/qthreads"
	"repro/internal/workloads"
)

// SparseLU is the BOTS sparse LU factorization over a blocked matrix:
// per elimination step k, the diagonal block is factorized (lu0), the
// row and column panels updated in parallel (fwd/bdiv), then the
// trailing submatrix updated block-wise (bmod), with fill-in blocks
// allocated on first touch. Compute-bound, near-linear scaling, with a
// high power draw (paper Tables I–III measure a "-for" loop variant with
// ICC and a "-single" task variant with both compilers).
type SparseLU struct {
	single bool

	p  workloads.Params
	cg compiler.CodeGen

	nb int // blocks per dimension
	bs int // block size

	orig []([]float64) // the generated blocked matrix (nil = zero block)
	want []([]float64) // serial reference factorization
	got  []([]float64)

	cyclesPerFlop float64
	activity      float64
}

// SparseLU shape: a 24×24 grid of 16×16 blocks, ~65% populated — enough
// blocks that the trailing-submatrix (bmod) phase dominates and keeps all
// 16 workers fed, as with BOTS' 50×50 default.
const (
	sluNB = 24
	sluBS = 16
)

// NewSparseLUFor creates the parallel-loop variant.
func NewSparseLUFor() *SparseLU { return &SparseLU{single: false} }

// NewSparseLUSingle creates the single-producer task variant.
func NewSparseLUSingle() *SparseLU { return &SparseLU{single: true} }

// Name returns the canonical app name.
func (l *SparseLU) Name() string {
	if l.single {
		return compiler.AppSparseLUSingle
	}
	return compiler.AppSparseLUFor
}

// sluInput is the generated blocked matrix (nil = zero block), its
// serial factorization and the flops that took. Runs clone orig and only
// read want.
type sluInput struct {
	orig  [][]float64
	want  [][]float64
	flops float64
}

// sluInputs is shared by the -for and -single variants: the matrix
// depends on the seed alone.
var sluInputs workloads.Memo[int64, sluInput]

// buildSLUInput generates the matrix for a seed and factorizes it
// serially, counting flops for calibration as it goes.
func buildSLUInput(seed int64) sluInput {
	// A throwaway instance carries the shape for factorize.
	l := &SparseLU{nb: sluNB, bs: sluBS}
	rng := rand.New(rand.NewSource(seed))
	l.orig = make([][]float64, l.nb*l.nb)
	for i := 0; i < l.nb; i++ {
		for j := 0; j < l.nb; j++ {
			// BOTS-like structure: diagonal always present, off-diagonal
			// sparse.
			if i == j || (i+j)%3 != 0 {
				b := make([]float64, l.bs*l.bs)
				for x := range b {
					b[x] = rng.Float64() - 0.5
				}
				if i == j {
					// Diagonal dominance keeps lu0 stable.
					for d := 0; d < l.bs; d++ {
						b[d*l.bs+d] += float64(l.bs)
					}
				}
				l.orig[i*l.nb+j] = b
			}
		}
	}
	in := sluInput{orig: l.orig}
	in.want = l.factorize(nil, &in.flops)
	return in
}

// Prepare generates the matrix and factorizes it serially for the
// reference (once per seed), and calibrates charges.
func (l *SparseLU) Prepare(p workloads.Params) error {
	p = p.WithDefaults()
	cg, err := workloads.Lookup(l.Name(), p.Target)
	if err != nil {
		return err
	}
	l.p, l.cg = p, cg
	l.nb, l.bs = sluNB, sluBS

	in := sluInputs.Get(p.Seed, buildSLUInput)
	l.orig, l.want = in.orig, in.want

	total, act, err := computeCalib(p.MachineConfig, l.Name(), p.Target, p.Scale)
	if err != nil {
		return err
	}
	l.cyclesPerFlop = total / in.flops
	l.activity = act
	return nil
}

// cloneMatrix deep-copies the original blocked matrix.
func (l *SparseLU) cloneMatrix() [][]float64 {
	m := make([][]float64, len(l.orig))
	for i, b := range l.orig {
		if b != nil {
			m[i] = append([]float64(nil), b...)
		}
	}
	return m
}

// Real block kernels: lu0 factorizes a diagonal block in place; fwd
// solves L·X = B for a row-panel block; bdiv solves X·U = B for a
// column-panel block; bmod applies C -= A·B.

func lu0(a []float64, bs int) {
	for k := 0; k < bs; k++ {
		piv := a[k*bs+k]
		for i := k + 1; i < bs; i++ {
			a[i*bs+k] /= piv
			f := a[i*bs+k]
			for j := k + 1; j < bs; j++ {
				a[i*bs+j] -= f * a[k*bs+j]
			}
		}
	}
}

func fwd(diag, b []float64, bs int) {
	for k := 0; k < bs; k++ {
		for i := k + 1; i < bs; i++ {
			f := diag[i*bs+k]
			for j := 0; j < bs; j++ {
				b[i*bs+j] -= f * b[k*bs+j]
			}
		}
	}
}

func bdiv(diag, b []float64, bs int) {
	for k := 0; k < bs; k++ {
		piv := diag[k*bs+k]
		for i := 0; i < bs; i++ {
			b[i*bs+k] /= piv
			f := b[i*bs+k]
			for j := k + 1; j < bs; j++ {
				b[i*bs+j] -= f * diag[k*bs+j]
			}
		}
	}
}

func bmod(a, b, c []float64, bs int) {
	for i := 0; i < bs; i++ {
		for k := 0; k < bs; k++ {
			f := a[i*bs+k]
			if f == 0 {
				continue
			}
			for j := 0; j < bs; j++ {
				c[i*bs+j] -= f * b[k*bs+j]
			}
		}
	}
}

// Per-kernel flop counts for cost charging.
func (l *SparseLU) flopsLU0() float64   { b := float64(l.bs); return 2 * b * b * b / 3 }
func (l *SparseLU) flopsPanel() float64 { b := float64(l.bs); return b * b * b }
func (l *SparseLU) flopsBmod() float64  { b := float64(l.bs); return 2 * b * b * b }

// factorize runs the blocked elimination serially when tc is nil, or
// task-parallel per phase otherwise, and returns the factorized matrix.
// The parallel schedule joins every phase, so block results are bitwise
// identical to the serial reference.
func (l *SparseLU) factorize(tc *qthreads.TC, flops *float64) [][]float64 {
	m := l.cloneMatrix()
	nb, bs := l.nb, l.bs
	at := func(i, j int) []float64 { return m[i*nb+j] }
	ensure := func(i, j int) []float64 {
		if m[i*nb+j] == nil {
			m[i*nb+j] = make([]float64, bs*bs)
		}
		return m[i*nb+j]
	}
	charge := func(tc *qthreads.TC, f float64) {
		if flops != nil {
			*flops += f
		}
		if tc != nil {
			tc.Execute(machine.Work{Ops: f * l.cyclesPerFlop, Activity: l.activity})
		}
	}
	runPhase := func(items []int, body func(tc *qthreads.TC, idx int)) {
		if tc == nil {
			for _, it := range items {
				body(nil, it)
			}
			return
		}
		if l.single {
			g := tc.NewGroup()
			for _, it := range items {
				it := it
				g.Spawn(tc, func(tc *qthreads.TC) { body(tc, it) })
			}
			g.Wait(tc)
			return
		}
		tc.ParallelFor(len(items), 1, func(tc *qthreads.TC, lo, hi int) {
			for x := lo; x < hi; x++ {
				body(tc, items[x])
			}
		})
	}

	for k := 0; k < nb; k++ {
		lu0(at(k, k), bs)
		charge(tc, l.flopsLU0())

		var rows, cols []int
		for j := k + 1; j < nb; j++ {
			if at(k, j) != nil {
				rows = append(rows, j)
			}
			if at(j, k) != nil {
				cols = append(cols, j)
			}
		}
		runPhase(rows, func(tc *qthreads.TC, j int) {
			fwd(at(k, k), at(k, j), bs)
			charge(tc, l.flopsPanel())
		})
		runPhase(cols, func(tc *qthreads.TC, i int) {
			bdiv(at(k, k), at(i, k), bs)
			charge(tc, l.flopsPanel())
		})
		// Trailing update: one item per (i, j) pair with both panels
		// present; fill-in is allocated inside the owning task.
		var pairs []int
		for _, i := range cols {
			for _, j := range rows {
				pairs = append(pairs, i*nb+j)
			}
		}
		runPhase(pairs, func(tc *qthreads.TC, ij int) {
			i, j := ij/nb, ij%nb
			bmod(at(i, k), at(k, j), ensure(i, j), bs)
			charge(tc, l.flopsBmod())
		})
	}
	return m
}

// Root returns the benchmark body for the configured variant.
func (l *SparseLU) Root() qthreads.Task {
	return func(tc *qthreads.TC) {
		l.got = l.factorize(tc, nil)
	}
}

// Validate compares the parallel factorization against the serial
// reference bitwise (the phase barriers make the floating-point order
// identical).
func (l *SparseLU) Validate() error {
	if l.got == nil {
		return fmt.Errorf("sparselu: run did not complete")
	}
	for idx := range l.want {
		w, g := l.want[idx], l.got[idx]
		if (w == nil) != (g == nil) {
			return fmt.Errorf("sparselu: fill-in mismatch at block %d", idx)
		}
		for x := range w {
			if w[x] != g[x] && !(math.IsNaN(w[x]) && math.IsNaN(g[x])) {
				return fmt.Errorf("sparselu: block %d element %d: %g vs %g", idx, x, g[x], w[x])
			}
		}
	}
	return nil
}

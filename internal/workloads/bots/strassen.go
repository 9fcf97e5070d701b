package bots

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/compiler"
	"repro/internal/qthreads"
	"repro/internal/workloads"
)

// Strassen is the BOTS Strassen matrix multiplication with cutoff: the
// seven recursive sub-products are spawned as tasks until the cutoff
// size, below which a classical multiply runs serially. The algorithm
// streams large temporaries while overlapping computation aggressively,
// so each core demands its full memory pipeline: the node saturates
// around 4.9 effective threads while still drawing the study's highest
// power (paper §II-C.2 singles out exactly this behaviour — overlapped
// memory traffic costs peak power). High power plus high memory
// concurrency makes it a throttling candidate (Table VII).
type Strassen struct {
	p  workloads.Params
	cg compiler.CodeGen

	n      int
	cutoff int
	a, b   []float64
	want   []float64
	got    []float64

	prof    bwProfile
	perLeaf float64
	leaves  int
}

// Strassen shape: 256×256 with cutoff 32 gives 343 leaf multiplications.
// Mechanism: per-core demand clamps at the core's line-fill limit
// (satShare below the clamp point), with near-total compute/memory
// overlap.
const (
	strassenN        = 256
	strassenCutoff   = 32
	strassenSatShare = 2.4
	strassenOverlap  = 0.95
)

// NewStrassen creates the workload.
func NewStrassen() *Strassen { return &Strassen{} }

// Name returns the canonical app name.
func (w *Strassen) Name() string { return compiler.AppStrassen }

// strassenInput is the two operand matrices and their classical product.
// Runs only read all three (quad and addM copy out of the operands).
type strassenInput struct{ a, b, want []float64 }

var strassenInputs workloads.Memo[int64, strassenInput]

// buildStrassenInput draws the operands for a seed and multiplies them
// classically.
func buildStrassenInput(seed int64) strassenInput {
	rng := rand.New(rand.NewSource(seed))
	a, b := randomMatrix(rng, strassenN), randomMatrix(rng, strassenN)
	return strassenInput{a, b, classicalMultiply(a, b, strassenN)}
}

// Prepare generates matrices and computes the classical reference
// product (once per seed), and calibrates charges.
func (w *Strassen) Prepare(p workloads.Params) error {
	p = p.WithDefaults()
	cg, err := workloads.Lookup(w.Name(), p.Target)
	if err != nil {
		return err
	}
	w.p, w.cg = p, cg
	w.n = strassenN
	w.cutoff = strassenCutoff

	in := strassenInputs.Get(p.Seed, buildStrassenInput)
	w.a, w.b, w.want = in.a, in.b, in.want

	prof, err := bwCalib(p.MachineConfig, w.Name(), p.Target, p.Scale, strassenSatShare, strassenOverlap)
	if err != nil {
		return err
	}
	w.prof = prof
	w.leaves = 1
	for s := w.n; s > w.cutoff; s /= 2 {
		w.leaves *= 7
	}
	w.perLeaf = prof.totalCycles / float64(w.leaves)
	return nil
}

func randomMatrix(rng *rand.Rand, n int) []float64 {
	m := make([]float64, n*n)
	for i := range m {
		m[i] = rng.Float64() - 0.5
	}
	return m
}

// classicalMultiply is the O(n³) reference.
func classicalMultiply(a, b []float64, n int) []float64 {
	c := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			f := a[i*n+k]
			if f == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				c[i*n+j] += f * b[k*n+j]
			}
		}
	}
	return c
}

// matrix helpers over contiguous square buffers.

func addM(a, b []float64) []float64 {
	c := make([]float64, len(a))
	for i := range a {
		c[i] = a[i] + b[i]
	}
	return c
}

func subM(a, b []float64) []float64 {
	c := make([]float64, len(a))
	for i := range a {
		c[i] = a[i] - b[i]
	}
	return c
}

// quad extracts quadrant (qi, qj) of an n×n matrix.
func quad(m []float64, n, qi, qj int) []float64 {
	h := n / 2
	out := make([]float64, h*h)
	for i := 0; i < h; i++ {
		copy(out[i*h:(i+1)*h], m[(qi*h+i)*n+qj*h:(qi*h+i)*n+qj*h+h])
	}
	return out
}

// assemble writes four quadrants back into an n×n matrix.
func assemble(c11, c12, c21, c22 []float64, n int) []float64 {
	h := n / 2
	out := make([]float64, n*n)
	for i := 0; i < h; i++ {
		copy(out[i*n:i*n+h], c11[i*h:(i+1)*h])
		copy(out[i*n+h:i*n+n], c12[i*h:(i+1)*h])
		copy(out[(h+i)*n:(h+i)*n+h], c21[i*h:(i+1)*h])
		copy(out[(h+i)*n+h:(h+i)*n+n], c22[i*h:(i+1)*h])
	}
	return out
}

// Root returns the benchmark body.
func (w *Strassen) Root() qthreads.Task {
	return func(tc *qthreads.TC) {
		w.got = w.multiply(tc, w.a, w.b, w.n)
	}
}

// multiply is the real Strassen recursion with task-parallel
// sub-products.
func (w *Strassen) multiply(tc *qthreads.TC, a, b []float64, n int) []float64 {
	if n <= w.cutoff {
		c := classicalMultiply(a, b, n)
		tc.Execute(w.prof.work(w.perLeaf))
		return c
	}
	a11, a12 := quad(a, n, 0, 0), quad(a, n, 0, 1)
	a21, a22 := quad(a, n, 1, 0), quad(a, n, 1, 1)
	b11, b12 := quad(b, n, 0, 0), quad(b, n, 0, 1)
	b21, b22 := quad(b, n, 1, 0), quad(b, n, 1, 1)

	var m1, m2, m3, m4, m5, m6, m7 []float64
	tc.Spawn(func(tc *qthreads.TC) { m1 = w.multiply(tc, addM(a11, a22), addM(b11, b22), n/2) })
	tc.Spawn(func(tc *qthreads.TC) { m2 = w.multiply(tc, addM(a21, a22), b11, n/2) })
	tc.Spawn(func(tc *qthreads.TC) { m3 = w.multiply(tc, a11, subM(b12, b22), n/2) })
	tc.Spawn(func(tc *qthreads.TC) { m4 = w.multiply(tc, a22, subM(b21, b11), n/2) })
	tc.Spawn(func(tc *qthreads.TC) { m5 = w.multiply(tc, addM(a11, a12), b22, n/2) })
	tc.Spawn(func(tc *qthreads.TC) { m6 = w.multiply(tc, subM(a21, a11), addM(b11, b12), n/2) })
	m7 = w.multiply(tc, subM(a12, a22), addM(b21, b22), n/2)
	tc.Sync()

	c11 := addM(subM(addM(m1, m4), m5), m7)
	c12 := addM(m3, m5)
	c21 := addM(m2, m4)
	c22 := addM(subM(addM(m1, m3), m2), m6)
	return assemble(c11, c12, c21, c22, n)
}

// Validate compares against the classical product within floating-point
// tolerance (Strassen reassociates, so bitwise equality is not
// expected).
func (w *Strassen) Validate() error {
	if w.got == nil {
		return fmt.Errorf("strassen: run did not complete")
	}
	for i := range w.want {
		if math.Abs(w.got[i]-w.want[i]) > 1e-8*(1+math.Abs(w.want[i])) {
			return fmt.Errorf("strassen: element %d: %g vs %g", i, w.got[i], w.want[i])
		}
	}
	return nil
}

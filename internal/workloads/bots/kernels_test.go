package bots

import (
	"math"
	"math/rand"
	"testing"
)

// plainBmod and plainMultiply are the kernels as plain triple loops, one
// load and one store of the output element per k: the bit-for-bit
// reference for the register-blocked bmod and classicalMultiply.
func plainBmod(a, b, c []float64, bs int) {
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

func plainMultiply(a, b []float64, n int) []float64 {
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

// kernelBlock draws an n×n block with about a quarter of its entries
// exactly zero (the skipped multipliers) and the rest in [-1, 1).
func kernelBlock(rng *rand.Rand, n int) []float64 {
	m := make([]float64, n*n)
	for i := range m {
		if rng.Intn(4) != 0 {
			m[i] = 2*rng.Float64() - 1
		}
	}
	return m
}

// checkBlockKernels runs both kernels and their plain loops on a, b and
// c (n×n each) and fails on the first element whose bits differ.
func checkBlockKernels(t *testing.T, a, b, c []float64, n int) {
	t.Helper()
	same := func(what string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d %s element %d: blocked %v (%#x), plain %v (%#x)",
					n, what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
	got := append([]float64(nil), c...)
	want := append([]float64(nil), c...)
	bmod(a, b, got, n)
	plainBmod(a, b, want, n)
	same("bmod", got, want)
	same("classicalMultiply", classicalMultiply(a, b, n), plainMultiply(a, b, n))
}

// TestBlockKernelsMatchPlainLoops holds the register-blocked kernels to
// the plain loops bit for bit on fixed-seed blocks: sparselu's 16×16,
// strassen's 32×32 leaves, sizes with a column remainder past the last
// group of eight, and a NaN in a and in b (a NaN multiplier propagates;
// a NaN facing a zero multiplier is skipped).
func TestBlockKernelsMatchPlainLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for _, n := range []int{sluBS, strassenCutoff, 1, 7, 13, 24} {
		a, b, c := kernelBlock(rng, n), kernelBlock(rng, n), kernelBlock(rng, n)
		checkBlockKernels(t, a, b, c, n)
		a[rng.Intn(n*n)] = math.NaN()
		b[rng.Intn(n*n)] = math.NaN()
		checkBlockKernels(t, a, b, c, n)
	}
}

// FuzzBlockKernels lets the fuzzer draw the blocks: the seed picks the
// size and the entries, zeros included, and nan places one NaN.
//
//	go test ./internal/workloads/bots -run '^$' -fuzz FuzzBlockKernels -fuzztime 30s
func FuzzBlockKernels(f *testing.F) {
	f.Add(int64(0), uint16(0))
	f.Add(int64(16), uint16(300))
	f.Add(int64(32), uint16(1023))
	f.Fuzz(func(t *testing.T, seed int64, nan uint16) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		a, b, c := kernelBlock(rng, n), kernelBlock(rng, n), kernelBlock(rng, n)
		if i := int(nan); i < 3*n*n {
			[][]float64{a, b, c}[i/(n*n)][i%(n*n)] = math.NaN()
		}
		checkBlockKernels(t, a, b, c, n)
	})
}

// BenchmarkBlockKernels measures one sparselu block update and one
// strassen leaf product on fixed-seed dense blocks, as both programs
// feed them: their inputs have no zero entries, so the skip's branch is
// always taken the same way.
func BenchmarkBlockKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(48))
	b.Run("bmod", func(b *testing.B) {
		x, y, z := randomMatrix(rng, sluBS), randomMatrix(rng, sluBS), randomMatrix(rng, sluBS)
		for i := 0; i < b.N; i++ {
			bmod(x, y, z, sluBS)
		}
	})
	b.Run("classicalMultiply", func(b *testing.B) {
		x, y := randomMatrix(rng, strassenCutoff), randomMatrix(rng, strassenCutoff)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			classicalMultiply(x, y, strassenCutoff)
		}
	})
}

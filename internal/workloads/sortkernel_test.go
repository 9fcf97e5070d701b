package workloads

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sortShapes are the inputs SortInt32 is checked on, each filling a
// slice of any length from a generator.
var sortShapes = []struct {
	name string
	fill func(a []int32, rng *rand.Rand)
}{
	{"random", func(a []int32, rng *rand.Rand) {
		for i := range a {
			a[i] = int32(rng.Uint32())
		}
	}},
	{"extremes", func(a []int32, rng *rand.Rand) {
		vals := []int32{math.MinInt32, math.MinInt32 + 1, -1, 0, 1, math.MaxInt32 - 1, math.MaxInt32}
		for i := range a {
			a[i] = vals[rng.Intn(len(vals))]
		}
	}},
	{"all-equal", func(a []int32, _ *rand.Rand) {
		for i := range a {
			a[i] = -7
		}
	}},
	{"sorted", func(a []int32, _ *rand.Rand) {
		for i := range a {
			a[i] = int32(i) - int32(len(a)/2)
		}
	}},
	{"reversed", func(a []int32, _ *rand.Rand) {
		for i := range a {
			a[i] = int32(len(a)/2) - int32(i)
		}
	}},
	{"few-distinct", func(a []int32, rng *rand.Rand) {
		for i := range a {
			a[i] = int32(rng.Intn(5)-2) << 20
		}
	}},
}

// checkSortInt32 sorts a copy of a and compares it with slices.Sort. The
// scratch is one longer than a, which the contract allows.
func checkSortInt32(t *testing.T, a []int32) {
	t.Helper()
	want := slices.Clone(a)
	slices.Sort(want)
	got := slices.Clone(a)
	SortInt32(got, make([]int32, len(a)+1))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("n=%d: SortInt32 put %d at index %d, slices.Sort %d", len(a), got[i], i, want[i])
		}
	}
}

func TestSortInt32MatchesSlicesSort(t *testing.T) {
	lengths := []int{4095, 4096, 4097, 16384}
	for n := 0; n <= 300; n++ {
		lengths = append(lengths, n)
	}
	rng := rand.New(rand.NewSource(1))
	for _, shape := range sortShapes {
		t.Run(shape.name, func(t *testing.T) {
			for _, n := range lengths {
				a := make([]int32, n)
				shape.fill(a, rng)
				checkSortInt32(t, a)
			}
		})
	}
}

func TestMergeInt32(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sorted := func(n int) []int32 {
		a := make([]int32, n)
		for i := range a {
			a[i] = int32(rng.Intn(40) - 20)
		}
		slices.Sort(a)
		return a
	}
	for _, sz := range [][2]int{{0, 0}, {0, 5}, {5, 0}, {1, 1}, {1, 300}, {300, 1}, {3, 97}, {97, 3}, {128, 128}} {
		t.Run(fmt.Sprintf("%dx%d", sz[0], sz[1]), func(t *testing.T) {
			a, b := sorted(sz[0]), sorted(sz[1])
			want := slices.Concat(a, b)
			slices.Sort(want)
			dst := make([]int32, len(a)+len(b))
			MergeInt32(dst, a, b)
			if !slices.Equal(dst, want) {
				t.Fatalf("MergeInt32(%v, %v) = %v, want %v", a, b, dst, want)
			}
		})
	}
}

// TestEqualInt32 holds EqualInt32 to slices.Equal: on equal slices of
// every length up to 40, on each of them with one element changed (the
// change at every position, in every byte of the element), and on
// slices of unequal length.
func TestEqualInt32(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 40; n++ {
		a := make([]int32, n)
		for i := range a {
			a[i] = int32(rng.Uint32())
		}
		b := slices.Clone(a)
		if !EqualInt32(a, b) {
			t.Fatalf("n=%d: equal slices differ", n)
		}
		for i := range b {
			for shift := 0; shift < 32; shift += 8 {
				b[i] ^= 1 << shift
				if EqualInt32(a, b) {
					t.Fatalf("n=%d: slices differing in byte %d of element %d are equal", n, shift/8, i)
				}
				b[i] = a[i]
			}
		}
		if n > 0 && (EqualInt32(a, b[:n-1]) || EqualInt32(a[:n-1], b)) {
			t.Fatalf("n=%d: slices of unequal length are equal", n)
		}
	}
}

func TestSortKernelAllocs(t *testing.T) {
	const n = 4096
	master := make([]int32, n)
	rng := rand.New(rand.NewSource(3))
	for i := range master {
		master[i] = int32(rng.Uint32())
	}
	a, scratch, dst := make([]int32, n), make([]int32, n), make([]int32, 2*n)
	if allocs := testing.AllocsPerRun(100, func() {
		copy(a, master)
		SortInt32(a, scratch)
	}); allocs != 0 {
		t.Errorf("SortInt32 allocates %.0f times a call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		MergeInt32(dst, a, a)
	}); allocs != 0 {
		t.Errorf("MergeInt32 allocates %.0f times a call, want 0", allocs)
	}
}

// FuzzSortInt32 reads the input as little-endian int32s (a trailing
// partial word is dropped) and holds SortInt32 to slices.Sort.
func FuzzSortInt32(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0x80, 0xff, 0xff, 0xff, 0x7f, 1, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		a := make([]int32, len(data)/4)
		for i := range a {
			a[i] = int32(binary.LittleEndian.Uint32(data[4*i:]))
		}
		checkSortInt32(t, a)
	})
}

// BenchmarkSortInt32 sorts one bots.Sort leaf at full scale (2^20
// elements in 64 blocks); refilling it from the unsorted master is part
// of the run, as the copy into the work array is in Sort.Root.
func BenchmarkSortInt32(b *testing.B) {
	const n = 1 << 14
	rng := rand.New(rand.NewSource(1))
	master := make([]int32, n)
	for i := range master {
		master[i] = int32(rng.Uint32())
	}
	a, scratch := make([]int32, n), make([]int32, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(a, master)
		SortInt32(a, scratch)
	}
}

// BenchmarkMergeInt32 merges two sorted random leaves of that size, the
// first merge level of bots.Sort.
func BenchmarkMergeInt32(b *testing.B) {
	const n = 1 << 14
	rng := rand.New(rand.NewSource(1))
	x, y := make([]int32, n), make([]int32, n)
	for i := range x {
		x[i], y[i] = int32(rng.Uint32()), int32(rng.Uint32())
	}
	slices.Sort(x)
	slices.Sort(y)
	dst := make([]int32, 2*n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MergeInt32(dst, x, y)
	}
}

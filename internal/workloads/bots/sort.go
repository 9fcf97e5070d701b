package bots

import (
	"fmt"
	"math/rand"

	"repro/internal/compiler"
	"repro/internal/qthreads"
	"repro/internal/workloads"
)

// Sort is BOTS sort *with cutoff* (cilksort-style): the array is split
// into blocks sorted by leaf tasks, then merged pairwise by task trees.
// Memory-bound with good overlap, it saturates around 12.6 effective
// threads (paper Figures 3/4) — high memory concurrency, but its power
// stays in the Medium band, so the MAESTRO daemon correctly leaves it
// alone (§IV-B: only four programs throttle).
//
// A leaf's sorted block is a pure function of the input, so the
// memoized reference holds every block already sorted and a leaf task
// copies its own over the unsorted copy the root made (workloads
// package doc). The merge levels read leaf output and keep merging on
// the host with the branch-free workloads.MergeInt32, where BOTS itself
// uses quicksort leaves and a branchy merge. The model cannot tell: a
// task is charged per element it touches (one leaf pass plus one per
// merge level), never per comparison or per host instruction.
type Sort struct {
	data    []int32 // shared with other instances: read only
	leaves  []int32 // shared with other instances: read only
	buf     []int32
	wantSum int64
	ran     bool

	prof          workloads.BWProfile
	cyclesPerElem float64
}

// Sort parameters: 1M elements in 64 leaf blocks; mechanism constants
// per DESIGN.md (socket saturates at ~6.3 sorting threads).
const (
	sortElems    = 1 << 20
	sortBlocks   = 64
	sortSatShare = 6.3
	sortOverlap  = 0.35
)

// NewSort creates the workload.
func NewSort() *Sort { return &Sort{} }

// Name returns the canonical app name.
func (s *Sort) Name() string { return compiler.AppSortCutoff }

// sortInput is the unsorted array, the same array with each of its
// sortBlocks leaf blocks sorted in place, and the checksum. Runs copy
// out of both and never write them.
type sortInput struct {
	data, leaves []int32
	wantSum      int64
}

// sortKey is what the array depends on: the seed and the element count
// Scale works out to.
type sortKey struct {
	seed int64
	n    int
}

var sortInputs workloads.Memo[sortKey, sortInput]

// buildSortInput draws the array for a seed and size, sums it, and
// sorts a copy of it block by block.
func buildSortInput(k sortKey) sortInput {
	rng := rand.New(rand.NewSource(k.seed))
	in := sortInput{data: make([]int32, k.n)}
	for i := range in.data {
		in.data[i] = int32(rng.Uint32())
		in.wantSum += int64(in.data[i])
	}
	in.leaves = append([]int32(nil), in.data...)
	scratch := make([]int32, k.n/sortBlocks+1)
	for b := 0; b < sortBlocks; b++ {
		lo, hi := sortBlock(b, k.n)
		workloads.SortInt32(in.leaves[lo:hi], scratch)
	}
	return in
}

// sortBlock returns the bounds of leaf block b of an n-element array.
func sortBlock(b, n int) (lo, hi int) {
	return b * n / sortBlocks, (b + 1) * n / sortBlocks
}

// Prepare generates data (once per seed and size) and calibrates
// charges.
func (s *Sort) Prepare(p workloads.Params) error {
	p = p.WithDefaults()
	prof, err := workloads.BandwidthCalib(p.MachineConfig, s.Name(), p.Target, p.Scale, sortSatShare, sortOverlap)
	if err != nil {
		return err
	}
	n := int(sortElems * p.Scale)
	if n < sortBlocks*2 {
		n = sortBlocks * 2
	}
	in := sortInputs.Get(sortKey{p.Seed, n}, buildSortInput)
	s.data, s.leaves, s.wantSum = in.data, in.leaves, in.wantSum
	s.buf = make([]int32, n)
	s.prof = prof
	// Work is spread over every element touch: one in the leaf sort pass
	// plus one per merge level.
	levels := 0
	for b := sortBlocks; b > 1; b /= 2 {
		levels++
	}
	s.cyclesPerElem = prof.TotalCycles / float64(n*(1+levels))
	return nil
}

// Root returns the benchmark body.
func (s *Sort) Root() qthreads.Task {
	return func(tc *qthreads.TC) {
		s.ran = false
		n := len(s.data)
		work := make([]int32, n)
		copy(work, s.data)

		// Leaf phase: each block in its own task, which copies the
		// block sorted out of the reference. A leaf that is lost leaves
		// its block of work unsorted.
		bounds := make([][2]int, 0, sortBlocks)
		for b := 0; b < sortBlocks; b++ {
			lo, hi := sortBlock(b, n)
			bounds = append(bounds, [2]int{lo, hi})
		}
		g := tc.NewGroup()
		for _, bd := range bounds {
			g.Spawn(tc, func(tc *qthreads.TC) {
				block := work[bd[0]:bd[1]]
				copy(block, s.leaves[bd[0]:bd[1]])
				tc.Execute(s.prof.Work(s.cyclesPerElem * float64(len(block))))
			})
		}
		g.Wait(tc)

		// Merge phases: pairwise merges, each itself divide-and-conquer
		// parallel (cilksort's trick — without it the top-level merges
		// serialize and the program would scale like the untuned
		// mergesort micro-benchmark instead of to ~12.6 threads).
		grain := n / sortBlocks
		src, dst := work, s.buf
		for len(bounds) > 1 {
			next := make([][2]int, 0, (len(bounds)+1)/2)
			mg := tc.NewGroup()
			for i := 0; i+1 < len(bounds); i += 2 {
				a, b := bounds[i], bounds[i+1]
				s.parMerge(tc, mg, dst[a[0]:b[1]], src[a[0]:a[1]], src[b[0]:b[1]], grain)
				next = append(next, [2]int{a[0], b[1]})
			}
			if len(bounds)%2 == 1 {
				last := bounds[len(bounds)-1]
				copy(dst[last[0]:last[1]], src[last[0]:last[1]])
				next = append(next, last)
			}
			mg.Wait(tc)
			bounds = next
			src, dst = dst, src
		}
		// Result ends in src after the final swap.
		copy(s.buf, src)
		s.ran = true
	}
}

// parMerge merges two sorted slices into dst, recursively splitting the
// work into tasks of roughly grain elements: split a at its midpoint,
// binary-search the partner position in b, and merge the two halves
// independently.
func (s *Sort) parMerge(tc *qthreads.TC, g *qthreads.Group, dst, a, b []int32, grain int) {
	if len(a)+len(b) <= grain || len(a) == 0 || len(b) == 0 {
		g.Spawn(tc, func(tc *qthreads.TC) {
			workloads.MergeInt32(dst, a, b)
			tc.Execute(s.prof.Work(s.cyclesPerElem * float64(len(a)+len(b))))
		})
		return
	}
	if len(a) < len(b) {
		a, b = b, a
	}
	mid := len(a) / 2
	pivot := a[mid]
	// First index in b with b[cut] > pivot keeps the merge stable.
	lo, hi := 0, len(b)
	for lo < hi {
		m := (lo + hi) / 2
		if b[m] <= pivot {
			lo = m + 1
		} else {
			hi = m
		}
	}
	cut := lo
	s.parMerge(tc, g, dst[:mid+cut], a[:mid], b[:cut], grain)
	s.parMerge(tc, g, dst[mid+cut:], a[mid:], b[cut:], grain)
}

// Validate checks sortedness and the element checksum.
func (s *Sort) Validate() error {
	if !s.ran {
		return fmt.Errorf("bots-sort: run did not complete")
	}
	var sum int64
	for i, v := range s.buf {
		sum += int64(v)
		if i > 0 && s.buf[i-1] > v {
			return fmt.Errorf("bots-sort: out of order at %d", i)
		}
	}
	if sum != s.wantSum {
		return fmt.Errorf("bots-sort: checksum %d, want %d", sum, s.wantSum)
	}
	return nil
}

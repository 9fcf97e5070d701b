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
// On the host each leaf radix-sorts its block (workloads.SortInt32) and
// each merge task runs the branch-free workloads.MergeInt32, where BOTS
// itself uses quicksort leaves and a branchy merge. The model cannot
// tell: a task is charged per element it touches (one leaf pass plus
// one per merge level), never per comparison, so the host algorithm
// changes the regeneration's CPU and no simulated number.
type Sort struct {
	p  workloads.Params
	cg compiler.CodeGen

	data    []int32
	buf     []int32
	wantSum int64
	ran     bool

	prof          bwProfile
	cyclesPerElem float64
	leafBlocks    int
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

// sortInput is the unsorted array and its checksum. Runs copy data
// before sorting and never write it.
type sortInput struct {
	data    []int32
	wantSum int64
}

// sortKey is what the array depends on: the seed and the element count
// Scale works out to.
type sortKey struct {
	seed int64
	n    int
}

var sortInputs workloads.Memo[sortKey, sortInput]

// buildSortInput draws the array for a seed and size and sums it.
func buildSortInput(k sortKey) sortInput {
	rng := rand.New(rand.NewSource(k.seed))
	in := sortInput{data: make([]int32, k.n)}
	for i := range in.data {
		in.data[i] = int32(rng.Uint32())
		in.wantSum += int64(in.data[i])
	}
	return in
}

// Prepare generates data (once per seed and size) and calibrates
// charges.
func (s *Sort) Prepare(p workloads.Params) error {
	p = p.WithDefaults()
	cg, err := workloads.Lookup(s.Name(), p.Target)
	if err != nil {
		return err
	}
	s.p, s.cg = p, cg

	n := int(sortElems * p.Scale)
	if n < sortBlocks*2 {
		n = sortBlocks * 2
	}
	in := sortInputs.Get(sortKey{p.Seed, n}, buildSortInput)
	s.data, s.wantSum = in.data, in.wantSum
	s.buf = make([]int32, n)

	prof, err := bwCalib(p.MachineConfig, s.Name(), p.Target, p.Scale, sortSatShare, sortOverlap)
	if err != nil {
		return err
	}
	s.prof = prof
	// Work is spread over every element touch: one in the leaf sort pass
	// plus one per merge level.
	levels := 0
	for b := sortBlocks; b > 1; b /= 2 {
		levels++
	}
	s.cyclesPerElem = prof.totalCycles / float64(n*(1+levels))
	s.leafBlocks = sortBlocks
	return nil
}

// Root returns the benchmark body.
func (s *Sort) Root() qthreads.Task {
	return func(tc *qthreads.TC) {
		s.ran = false
		n := len(s.data)
		work := make([]int32, n)
		copy(work, s.data)

		// Leaf phase: sort each block in its own task. A leaf's radix
		// scratch is its own range of s.buf: the ranges are disjoint, and
		// nothing else uses s.buf until the first merge level writes it.
		bounds := make([][2]int, 0, s.leafBlocks)
		for b := 0; b < s.leafBlocks; b++ {
			lo := b * n / s.leafBlocks
			hi := (b + 1) * n / s.leafBlocks
			bounds = append(bounds, [2]int{lo, hi})
		}
		g := tc.NewGroup()
		for _, bd := range bounds {
			bd := bd
			g.Spawn(tc, func(tc *qthreads.TC) {
				block := work[bd[0]:bd[1]]
				workloads.SortInt32(block, s.buf[bd[0]:bd[1]])
				tc.Execute(s.prof.work(s.cyclesPerElem * float64(len(block))))
			})
		}
		g.Wait(tc)

		// Merge phases: pairwise merges, each itself divide-and-conquer
		// parallel (cilksort's trick — without it the top-level merges
		// serialize and the program would scale like the untuned
		// mergesort micro-benchmark instead of to ~12.6 threads).
		grain := n / s.leafBlocks
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
			tc.Execute(s.prof.work(s.cyclesPerElem * float64(len(a)+len(b))))
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

package bots

import (
	"fmt"
	"math/rand"
	"sync/atomic"

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
// A leaf's sorted block is a pure function of the input, and so is
// every merge level, so the memoized reference holds each level's runs
// already merged (workloads package doc). A leaf task copies its block
// over the unsorted copy the root made. A merge task copies its share
// of the level out of the reference when its two inputs are the
// reference's, and merges them on the host with the branch-free
// workloads.MergeInt32 when they are not, so a lost or wrong leaf still
// reaches Validate. BOTS itself uses quicksort leaves and a branchy
// merge. The model cannot tell: a task is charged per element it
// touches (one leaf pass plus one per merge level), never per
// comparison or per host instruction.
type Sort struct {
	data   []int32   // shared with other instances: read only
	leaves []int32   // shared with other instances: read only
	levels [][]int32 // shared with other instances: read only
	buf    []int32
	// work is a run's copy of data, which its leaves overwrite with
	// their sorted blocks; allocated once in Prepare.
	work    []int32
	wantSum int64
	ran     bool
	// merged counts the last run's merge tasks that merged on the host
	// because their inputs were not the reference's.
	merged atomic.Int64

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

// sortInput is the unsorted array, the array as it stands after each
// level of the sort, and the checksum: leaves, which is levels[0], has
// each of the sortBlocks leaf blocks sorted in place, and levels[L] has
// the runs of sortLevels' level L merged. Runs copy out of them and
// never write them.
type sortInput struct {
	data, leaves []int32
	levels       [][]int32
	wantSum      int64
}

// sortKey is what the array depends on: the seed and the element count
// Scale works out to.
type sortKey struct {
	seed int64
	n    int
}

var sortInputs workloads.Memo[sortKey, sortInput]

// buildSortInput draws the array for a seed and size, sums it, sorts a
// copy of it block by block, and merges that level by level with the
// pairing Root uses.
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
	in.levels = [][]int32{in.leaves}
	runs := sortLevels(k.n)
	for l := 1; l < len(runs); l++ {
		prev, cur := in.levels[l-1], make([]int32, k.n)
		for _, p := range mergePairs(l, runs[l-1]) {
			workloads.MergeInt32(cur[p.lo:p.hi], prev[p.lo:p.mid], prev[p.mid:p.hi])
		}
		in.levels = append(in.levels, cur)
	}
	return in
}

// sortBlock returns the bounds of leaf block b of an n-element array.
func sortBlock(b, n int) (lo, hi int) {
	return b * n / sortBlocks, (b + 1) * n / sortBlocks
}

// sortLevels returns the sorted runs of an n-element array after each
// level: level 0 is the leaf blocks, and level L+1 merges level L's runs
// pairwise, down to one run. sortBlocks is a power of two, so every
// level pairs all of its runs.
func sortLevels(n int) [][][2]int {
	runs := make([][2]int, 0, sortBlocks)
	for b := 0; b < sortBlocks; b++ {
		lo, hi := sortBlock(b, n)
		runs = append(runs, [2]int{lo, hi})
	}
	levels := [][][2]int{runs}
	for len(runs) > 1 {
		next := make([][2]int, 0, len(runs)/2)
		for i := 0; i < len(runs); i += 2 {
			next = append(next, [2]int{runs[i][0], runs[i+1][1]})
		}
		levels = append(levels, next)
		runs = next
	}
	return levels
}

// mergePair is one merge of level L: the sorted runs [lo, mid) and
// [mid, hi) of level L-1 become the run [lo, hi) of level L.
type mergePair struct {
	level, lo, mid, hi int
}

// mergePairs returns the merges that make level l out of the runs of
// level l-1.
func mergePairs(l int, runs [][2]int) []mergePair {
	pairs := make([]mergePair, 0, len(runs)/2)
	for i := 0; i < len(runs); i += 2 {
		pairs = append(pairs, mergePair{l, runs[i][0], runs[i][1], runs[i+1][1]})
	}
	return pairs
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
	s.data, s.leaves, s.levels, s.wantSum = in.data, in.leaves, in.levels, in.wantSum
	s.buf = make([]int32, n)
	s.work = make([]int32, n)
	s.prof = prof
	// Work is spread over every element touch: one in the leaf sort pass
	// plus one per merge level.
	s.cyclesPerElem = prof.TotalCycles / float64(n*len(in.levels))
	return nil
}

// Root returns the benchmark body.
func (s *Sort) Root() qthreads.Task {
	return func(tc *qthreads.TC) {
		s.ran = false
		s.merged.Store(0)
		n := len(s.data)
		work := s.work
		copy(work, s.data)
		levels := sortLevels(n)

		// Leaf phase: each block in its own task, which copies the
		// block sorted out of the reference. A leaf that is lost leaves
		// its block of work unsorted.
		g := tc.NewGroup()
		for _, bd := range levels[0] {
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
		var spans []mergeSpan
		for l := 1; l < len(levels); l++ {
			mg := tc.NewGroup()
			for _, p := range mergePairs(l, levels[l-1]) {
				spans = mergeSpans(spans[:0], src, mergeSpan{p.lo, p.mid, p.mid, p.hi, false}, grain)
				for _, sp := range spans {
					mg.Spawn(tc, func(tc *qthreads.TC) {
						if !s.merge(src, dst, p, sp) {
							s.merged.Add(1)
						}
						tc.Execute(s.prof.Work(s.cyclesPerElem * float64(sp.x1-sp.x0+sp.y1-sp.y0)))
					})
				}
			}
			mg.Wait(tc)
			src, dst = dst, src
		}
		// Result ends in src after the final swap.
		copy(s.buf, src)
		s.ran = true
	}
}

// mergeSpan is one task of a pair's merge: src[x0:x1] is a piece of the
// pair's first run and src[y0:y1] of its second, and their merge lands
// in dst from x0+y0-mid on. yLead records that y was split last.
type mergeSpan struct {
	x0, x1, y0, y1 int
	yLead          bool
}

// mergeSpans appends the tasks of span sp's merge to spans, in the order
// they are spawned, splitting it recursively into tasks of roughly grain
// elements: split the longer piece at its midpoint, binary-search the
// partner position in the other, and merge the two halves
// independently. On a tie in length the piece split last is split
// again, as cilksort's swap of its two arguments does.
func mergeSpans(spans []mergeSpan, src []int32, sp mergeSpan, grain int) []mergeSpan {
	nx, ny := sp.x1-sp.x0, sp.y1-sp.y0
	if nx+ny <= grain || nx == 0 || ny == 0 {
		return append(spans, sp)
	}
	if ny > nx || ny == nx && sp.yLead {
		mid, cut := splitRun(src[sp.y0:sp.y1], src[sp.x0:sp.x1])
		spans = mergeSpans(spans, src, mergeSpan{sp.x0, sp.x0 + cut, sp.y0, sp.y0 + mid, true}, grain)
		return mergeSpans(spans, src, mergeSpan{sp.x0 + cut, sp.x1, sp.y0 + mid, sp.y1, true}, grain)
	}
	mid, cut := splitRun(src[sp.x0:sp.x1], src[sp.y0:sp.y1])
	spans = mergeSpans(spans, src, mergeSpan{sp.x0, sp.x0 + mid, sp.y0, sp.y0 + cut, false}, grain)
	return mergeSpans(spans, src, mergeSpan{sp.x0 + mid, sp.x1, sp.y0 + cut, sp.y1, false}, grain)
}

// splitRun splits a at its midpoint and returns it with the first index
// of b whose element is greater than a[mid], which keeps the merge
// stable.
func splitRun(a, b []int32) (mid, cut int) {
	mid = len(a) / 2
	pivot := a[mid]
	lo, hi := 0, len(b)
	for lo < hi {
		m := (lo + hi) / 2
		if b[m] <= pivot {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return mid, lo
}

// merge writes the merge of span sp into dst and reports whether it
// copied it out of the reference. It copies when both pieces are the
// reference's at their offsets and both ends of the span cut the pair
// where the reference merge does, so that the reference holds exactly
// the span's elements there; otherwise it merges the pieces as they
// are. Either way dst holds what MergeInt32 makes of them.
func (s *Sort) merge(src, dst []int32, p mergePair, sp mergeSpan) bool {
	x, y := src[sp.x0:sp.x1], src[sp.y0:sp.y1]
	d0 := sp.x0 + sp.y0 - p.mid
	out := dst[d0 : d0+len(x)+len(y)]
	prev := s.levels[p.level-1]
	if p.cuts(prev, sp.x0, sp.y0) && p.cuts(prev, sp.x1, sp.y1) &&
		workloads.EqualInt32(x, prev[sp.x0:sp.x1]) && workloads.EqualInt32(y, prev[sp.y0:sp.y1]) {
		copy(out, s.levels[p.level][d0:])
		return true
	}
	workloads.MergeInt32(out, x, y)
	return false
}

// cuts reports whether the first i-lo elements of the pair's first run
// (in prev) and the first j-mid of its second are the smallest i+j-lo-mid
// of the pair: whether nothing before the cut is greater than anything
// after it. The runs are sorted, so only the two cross pairs need a
// look.
func (p mergePair) cuts(prev []int32, i, j int) bool {
	return (i == p.lo || j == p.hi || prev[i-1] <= prev[j]) &&
		(j == p.mid || i == p.mid || prev[j-1] <= prev[i])
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

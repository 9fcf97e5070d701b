package micro

import (
	"fmt"
	"math/rand"

	"repro/internal/compiler"
	"repro/internal/machine"
	"repro/internal/qthreads"
	"repro/internal/workloads"
)

// Mergesort is the untuned micro-benchmark sort: the classic "default
// implementation" that parallelizes only the top-level split (two
// sections sorting one half each, then a sequential merge). It therefore
// scales to exactly 2 threads (paper §II-C.4) and, being memory-bound
// with most threads parked, draws the study's lowest power (~60 W).
//
// Each section's sorted half is a pure function of the input, and so is
// the merged whole, so the memoized reference holds both halves already
// sorted and the array sorted (workloads package doc). A section copies
// its half over the unsorted copy the root made. The root's final merge
// copies the sorted array when both sections' output is the reference's
// halves, and merges what they left on the host (workloads.MergeInt32)
// when it is not, so a lost section still reaches Validate. What is
// simulated is the shape — two sections, then a serial merge — charged
// from the element count alone (opsHalf/bytesHalf, opsMerge/bytesMerge),
// so the model cannot see what the host does to produce a sorted half.
type Mergesort struct {
	data   []int32 // shared with other instances: read only
	halves []int32 // shared with other instances: read only
	// merge is the reference the root's merge checks the sections'
	// output against (merge.halves, which halves is) and copies from
	// (merge.full). Shared with other instances: read only.
	merge   mergesortInput
	wantSum int64
	out     []int32
	sorted  bool
	// A run's copy of data, which its sections overwrite with their
	// sorted halves; allocated once in Prepare.
	work []int32

	// Charge model: each half-sort streams bytesHalf at opsHalf compute
	// cycles (memory-bound); the final merge is charged on the root.
	opsHalf, bytesHalf   float64
	opsMerge, bytesMerge float64
	activity             float64
}

// Mergesort shape constants at GCC -O2 (see DESIGN.md): of the 22.5 s
// 16-thread run, ~18.5 s is the two parallel half-sorts and ~4 s the
// serial merge; the compute stream occupies ~20% of the memory-bound
// time.
const (
	mergesortElems     = 2_000_000
	msHalfSecBase      = 18.5
	msMergeSecBase     = 4.0
	msComputeShareBase = 0.20
)

// NewMergesort creates the workload.
func NewMergesort() *Mergesort { return &Mergesort{} }

// Name returns the canonical app name.
func (s *Mergesort) Name() string { return compiler.AppMergesort }

// mergesortInput is the unsorted array, the same array with each of
// its two halves sorted and with the whole sorted, and the checksum.
// Runs copy out of them and never write them.
type mergesortInput struct {
	data, halves, full []int32
	wantSum            int64
}

var mergesortInputs workloads.Memo[inputKey, mergesortInput]

// buildMergesortInput draws the array for a seed and size, sums it,
// sorts a copy of each half, and merges the two.
func buildMergesortInput(k inputKey) mergesortInput {
	rng := rand.New(rand.NewSource(k.seed))
	in := mergesortInput{data: make([]int32, k.n)}
	for i := range in.data {
		in.data[i] = int32(rng.Uint32())
		in.wantSum += int64(in.data[i])
	}
	in.halves = append([]int32(nil), in.data...)
	mid := k.n / 2
	scratch := make([]int32, k.n-mid)
	workloads.SortInt32(in.halves[:mid], scratch)
	workloads.SortInt32(in.halves[mid:], scratch)
	in.full = make([]int32, k.n)
	workloads.MergeInt32(in.full, in.halves[:mid], in.halves[mid:])
	return in
}

// Prepare generates data (once per seed and size) and calibrates the
// charge model.
func (s *Mergesort) Prepare(p workloads.Params) error {
	p = p.WithDefaults()
	cg, err := workloads.Lookup(s.Name(), p.Target)
	if err != nil {
		return err
	}
	n := int(mergesortElems * p.Scale)
	if n < 4 {
		n = 4
	}
	in := mergesortInputs.Get(inputKey{p.Seed, n}, buildMergesortInput)
	s.data, s.halves, s.merge, s.wantSum = in.data, in.halves, in, in.wantSum
	s.out = make([]int32, n)
	s.work = make([]int32, n)

	cfg := p.MachineConfig
	f := float64(cfg.BaseFreq)
	coreCap := float64(cfg.Mem.MaxCoreBandwidth())

	// Memory traffic is a property of the data volume; compute scales
	// with the compiler. Fit the compute scale so the predicted total
	// time matches the paper for this build (at -O0 the bottleneck moves
	// from bandwidth to compute; scaling cycles by the raw time ratio
	// would change nothing while the run is bandwidth-bound).
	bytesHalf := msHalfSecBase * coreCap * p.Scale
	bytesMerge := msMergeSecBase * coreCap * p.Scale
	opsHalfBase := msComputeShareBase * f * msHalfSecBase * p.Scale
	opsMergeBase := msComputeShareBase * f * msMergeSecBase * p.Scale
	target, ok := compiler.PaperEntry(s.Name(), p.Target)
	if !ok {
		return fmt.Errorf("micro: mergesort has no %v entry", p.Target)
	}
	predict := func(sc float64) float64 {
		half := max(opsHalfBase*sc/f, bytesHalf/coreCap)
		merge := max(opsMergeBase*sc/f, bytesMerge/coreCap)
		return half + merge
	}
	sc := workloads.SolveScale(predict, target.Seconds*p.Scale, 0.01, 1000)
	s.bytesHalf, s.bytesMerge = bytesHalf, bytesMerge
	s.opsHalf = opsHalfBase * sc
	s.opsMerge = opsMergeBase * sc

	// Power at the calibration point (16 threads): one busy core per
	// socket (the two halves), the rest parked, streaming at the core
	// cap.
	halfTime := max(s.opsHalf/f, bytesHalf/coreCap)
	afBW := (s.opsHalf / f) / halfTime
	util := (bytesHalf / halfTime) / float64(cfg.Mem.BandwidthPerSocket)
	s.activity = workloads.SolveActivity(cfg, cg.TargetWatts,
		1, cfg.CoresPerSocket-1, 0, afBW, 0, util)
	return nil
}

// Root returns the benchmark body.
func (s *Mergesort) Root() qthreads.Task {
	return func(tc *qthreads.TC) {
		s.sorted = false
		mid := len(s.data) / 2
		// The unsorted input first, so that a section that is lost
		// leaves its half of work unsorted.
		copy(s.work, s.data)
		left, right := s.work[:mid], s.work[mid:]
		// The two "sections": each copies its half sorted out of the
		// reference.
		tc.Spawn(func(tc *qthreads.TC) {
			copy(left, s.halves[:mid])
			tc.Execute(machine.Work{Ops: s.opsHalf / 2, Bytes: s.bytesHalf / 2, Activity: s.activity})
			tc.Execute(machine.Work{Ops: s.opsHalf / 2, Bytes: s.bytesHalf / 2, Activity: s.activity})
		})
		tc.Spawn(func(tc *qthreads.TC) {
			copy(right, s.halves[mid:])
			tc.Execute(machine.Work{Ops: s.opsHalf / 2, Bytes: s.bytesHalf / 2, Activity: s.activity})
			tc.Execute(machine.Work{Ops: s.opsHalf / 2, Bytes: s.bytesHalf / 2, Activity: s.activity})
		})
		tc.Sync()
		// Sequential final merge on the root: the reference's when the
		// sections left the reference's halves.
		if workloads.EqualInt32(s.work, s.merge.halves) {
			copy(s.out, s.merge.full)
		} else {
			workloads.MergeInt32(s.out, left, right)
		}
		tc.Execute(machine.Work{Ops: s.opsMerge, Bytes: s.bytesMerge, Activity: s.activity})
		s.sorted = true
	}
}

// Validate checks the output is a sorted permutation of the input.
func (s *Mergesort) Validate() error {
	if !s.sorted {
		return fmt.Errorf("mergesort: run did not complete")
	}
	var sumOut int64
	for i, v := range s.out {
		sumOut += int64(v)
		if i > 0 && s.out[i-1] > v {
			return fmt.Errorf("mergesort: out[%d]=%d > out[%d]=%d", i-1, s.out[i-1], i, v)
		}
	}
	if sumOut != s.wantSum {
		return fmt.Errorf("mergesort: element checksum mismatch (%d vs %d)", s.wantSum, sumOut)
	}
	return nil
}

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
// The host really sorts: each section runs serialMergesort on its half
// and the root merges the halves with workloads.MergeInt32. What is
// simulated is the shape — two sections, then a serial merge — charged
// from the element count alone (opsHalf/bytesHalf, opsMerge/bytesMerge),
// so the model cannot see which algorithm the host uses to sort.
type Mergesort struct {
	data    []int32 // shared with other instances: read only
	wantSum int64
	out     []int32
	sorted  bool
	// Working storage of a run, allocated once in Prepare: the copy of
	// data the halves are sorted in, and the merge sort's scratch. The
	// two sections each use their own half of both.
	work, scratch []int32

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

// mergesortInput is the unsorted array and its checksum. Runs copy data
// before sorting and never write it.
type mergesortInput struct {
	data    []int32
	wantSum int64
}

var mergesortInputs workloads.Memo[inputKey, mergesortInput]

// buildMergesortInput draws the array for a seed and size and sums it.
func buildMergesortInput(k inputKey) mergesortInput {
	rng := rand.New(rand.NewSource(k.seed))
	in := mergesortInput{data: make([]int32, k.n)}
	for i := range in.data {
		in.data[i] = int32(rng.Uint32())
		in.wantSum += int64(in.data[i])
	}
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
	s.data, s.wantSum = in.data, in.wantSum
	s.out = make([]int32, n)
	s.work = make([]int32, n)
	s.scratch = make([]int32, n)

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
		left, right := s.work[:mid], s.work[mid:]
		// The two "sections": each really sorts its half.
		tc.Spawn(func(tc *qthreads.TC) {
			copy(left, s.data[:mid])
			serialMergesort(left, s.scratch[:mid])
			tc.Execute(machine.Work{Ops: s.opsHalf / 2, Bytes: s.bytesHalf / 2, Activity: s.activity})
			tc.Execute(machine.Work{Ops: s.opsHalf / 2, Bytes: s.bytesHalf / 2, Activity: s.activity})
		})
		tc.Spawn(func(tc *qthreads.TC) {
			copy(right, s.data[mid:])
			serialMergesort(right, s.scratch[mid:])
			tc.Execute(machine.Work{Ops: s.opsHalf / 2, Bytes: s.bytesHalf / 2, Activity: s.activity})
			tc.Execute(machine.Work{Ops: s.opsHalf / 2, Bytes: s.bytesHalf / 2, Activity: s.activity})
		})
		tc.Sync()
		// Sequential final merge on the root.
		workloads.MergeInt32(s.out, left, right)
		tc.Execute(machine.Work{Ops: s.opsMerge, Bytes: s.bytesMerge, Activity: s.activity})
		s.sorted = true
	}
}

// mergesortBaseRun is the length of the runs serialMergesort radix-sorts
// before its first merge pass: a run and its scratch are 32 KiB together,
// small enough for any core's L1d/L2 while the radix passes scatter
// between them. Longer runs sort faster still on a host with a large L2,
// but each doubling removes a merge pass, and merge passes are what
// makes this the merge sort the workload models.
const mergesortBaseRun = 4096

// serialMergesort sorts a, with buf (len(buf) == len(a)) as its scratch:
// a real bottom-up merge sort whose base runs of mergesortBaseRun
// elements are radix-sorted (workloads.SortInt32, each run's scratch its
// own range of buf) instead of being merged up from width 1. Each merge
// pass then merges from one buffer into the other and the two swap
// roles, so nothing is copied back until the end, and then only if the
// last pass left the result in buf. The charges in Mergesort.Root are a
// function of the element count alone, so how the host sorts changes
// its CPU and no simulated number.
func serialMergesort(a, buf []int32) {
	n := len(a)
	for lo := 0; lo < n; lo += mergesortBaseRun {
		hi := min(lo+mergesortBaseRun, n)
		workloads.SortInt32(a[lo:hi], buf[lo:hi])
	}
	src, dst := a, buf
	inBuf := false
	for width := mergesortBaseRun; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid := min(lo+width, n)
			hi := min(lo+2*width, n)
			workloads.MergeInt32(dst[lo:hi], src[lo:mid], src[mid:hi])
		}
		src, dst = dst, src
		inBuf = !inBuf
	}
	if inBuf {
		copy(a, src)
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

package bots

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"repro/internal/compiler"
	"repro/internal/machine"
	"repro/internal/qthreads"
	"repro/internal/workloads"
)

// Alignment is the BOTS protein alignment benchmark: all-pairs
// Smith-Waterman dynamic-programming alignment of a sequence set. The
// suite ships two task-generation variants (paper Tables I–III measure
// both): "-for" creates tasks from a parallel loop over pairs; "-single"
// has one thread spawn a task per pair. Both are compute-bound and scale
// near-linearly.
type Alignment struct {
	single bool

	p  workloads.Params
	cg compiler.CodeGen

	seqs     [][]byte
	pairs    [][2]int
	want     int64
	got      atomic.Int64
	perPair  float64
	activity float64
}

// Alignment input shape: 42 random protein sequences of length 64 give
// 861 pair tasks, enough for 16 threads with a smooth tail.
const (
	alignSeqs   = 42
	alignSeqLen = 64
)

// NewAlignmentFor creates the parallel-loop variant.
func NewAlignmentFor() *Alignment { return &Alignment{single: false} }

// NewAlignmentSingle creates the single-producer variant.
func NewAlignmentSingle() *Alignment { return &Alignment{single: true} }

// Name returns the canonical app name.
func (a *Alignment) Name() string {
	if a.single {
		return compiler.AppAlignmentSingle
	}
	return compiler.AppAlignmentFor
}

// alignInput is the sequence set, its pair list and the serial score
// sum. Runs only read it.
type alignInput struct {
	seqs  [][]byte
	pairs [][2]int
	want  int64
}

// alignInputs is shared by the -for and -single variants: the sequences
// depend on the seed alone.
var alignInputs workloads.Memo[int64, alignInput]

// buildAlignInput generates the sequences for a seed and aligns every
// pair serially.
func buildAlignInput(seed int64) alignInput {
	rng := rand.New(rand.NewSource(seed))
	const alphabet = "ARNDCQEGHILKMFPSTWYV"
	var in alignInput
	in.seqs = make([][]byte, alignSeqs)
	for i := range in.seqs {
		s := make([]byte, alignSeqLen)
		for j := range s {
			s[j] = alphabet[rng.Intn(len(alphabet))]
		}
		in.seqs[i] = s
	}
	for i := 0; i < len(in.seqs); i++ {
		for j := i + 1; j < len(in.seqs); j++ {
			in.pairs = append(in.pairs, [2]int{i, j})
		}
	}
	for _, pr := range in.pairs {
		in.want += int64(smithWaterman(in.seqs[pr[0]], in.seqs[pr[1]]))
	}
	return in
}

// Prepare generates sequences and computes the reference score sum (once
// per seed), and calibrates charges.
func (a *Alignment) Prepare(p workloads.Params) error {
	p = p.WithDefaults()
	cg, err := workloads.Lookup(a.Name(), p.Target)
	if err != nil {
		return err
	}
	a.p, a.cg = p, cg

	in := alignInputs.Get(p.Seed, buildAlignInput)
	a.seqs, a.pairs, a.want = in.seqs, in.pairs, in.want

	total, act, err := computeCalib(p.MachineConfig, a.Name(), p.Target, p.Scale)
	if err != nil {
		return err
	}
	a.perPair = total / float64(len(a.pairs))
	a.activity = act
	return nil
}

// smithWaterman computes the local-alignment score of two sequences with
// match +2, mismatch −1, gap −1.
func smithWaterman(x, y []byte) int32 {
	prev := make([]int32, len(y)+1)
	cur := make([]int32, len(y)+1)
	var best int32
	for i := 1; i <= len(x); i++ {
		for j := 1; j <= len(y); j++ {
			score := int32(-1)
			if x[i-1] == y[j-1] {
				score = 2
			}
			v := prev[j-1] + score
			if d := prev[j] - 1; d > v {
				v = d
			}
			if l := cur[j-1] - 1; l > v {
				v = l
			}
			if v < 0 {
				v = 0
			}
			cur[j] = v
			if v > best {
				best = v
			}
		}
		prev, cur = cur, prev
	}
	return best
}

// Root returns the benchmark body for the configured variant.
func (a *Alignment) Root() qthreads.Task {
	return func(tc *qthreads.TC) {
		a.got.Store(0)
		alignPair := func(tc *qthreads.TC, idx int) {
			pr := a.pairs[idx]
			a.got.Add(int64(smithWaterman(a.seqs[pr[0]], a.seqs[pr[1]])))
			tc.Execute(machine.Work{Ops: a.perPair, Activity: a.activity})
		}
		if a.single {
			// `single` region: one producer spawns a task per pair.
			for i := range a.pairs {
				i := i
				tc.Spawn(func(tc *qthreads.TC) { alignPair(tc, i) })
			}
			tc.Sync()
			return
		}
		// `parallel for`: loop chunks become tasks.
		tc.ParallelFor(len(a.pairs), 8, func(tc *qthreads.TC, lo, hi int) {
			for i := lo; i < hi; i++ {
				pr := a.pairs[i]
				a.got.Add(int64(smithWaterman(a.seqs[pr[0]], a.seqs[pr[1]])))
			}
			tc.Execute(machine.Work{Ops: a.perPair * float64(hi-lo), Activity: a.activity})
		})
	}
}

// Validate compares the score sum with the serial reference.
func (a *Alignment) Validate() error {
	if got := a.got.Load(); got != a.want {
		return fmt.Errorf("alignment: score sum = %d, want %d", got, a.want)
	}
	return nil
}

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

	scores   []int32 // per pair, from the serial reference
	want     int64
	got      atomic.Int64
	done     atomic.Int64 // pairs the run aligned
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

// alignInput is the serial reference: every pair's score, in the order
// the pair tasks are numbered, and their sum. Runs only read it. A pair
// task adds its pair's score instead of aligning the pair again: the
// score is a pure function of the two sequences, so a run computing it
// anew would get the same number.
type alignInput struct {
	scores []int32
	want   int64
}

// alignInputs is shared by the -for and -single variants: the sequences
// depend on the seed alone.
var alignInputs workloads.Memo[int64, alignInput]

// buildAlignInput generates the sequences for a seed and aligns every
// pair serially.
func buildAlignInput(seed int64) alignInput {
	rng := rand.New(rand.NewSource(seed))
	const alphabet = "ARNDCQEGHILKMFPSTWYV"
	seqs := make([][]byte, alignSeqs)
	for i := range seqs {
		s := make([]byte, alignSeqLen)
		for j := range s {
			s[j] = alphabet[rng.Intn(len(alphabet))]
		}
		seqs[i] = s
	}
	var in alignInput
	for i := range seqs {
		for j := i + 1; j < len(seqs); j++ {
			score := smithWaterman(seqs[i], seqs[j])
			in.scores = append(in.scores, score)
			in.want += int64(score)
		}
	}
	return in
}

// Prepare generates sequences and scores every pair (once per seed), and
// calibrates charges.
func (a *Alignment) Prepare(p workloads.Params) error {
	p = p.WithDefaults()
	total, act, err := workloads.ComputeCalib(p.MachineConfig, a.Name(), p.Target, p.Scale)
	if err != nil {
		return err
	}
	in := alignInputs.Get(p.Seed, buildAlignInput)
	a.scores, a.want = in.scores, in.want
	a.perPair = total / float64(len(a.scores))
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
		a.done.Store(0)
		alignPair := func(tc *qthreads.TC, idx int) {
			a.got.Add(int64(a.scores[idx]))
			a.done.Add(1)
			tc.Execute(machine.Work{Ops: a.perPair, Activity: a.activity})
		}
		if a.single {
			// `single` region: one producer spawns a task per pair.
			for i := range a.scores {
				i := i
				tc.Spawn(func(tc *qthreads.TC) { alignPair(tc, i) })
			}
			tc.Sync()
			return
		}
		// `parallel for`: loop chunks become tasks.
		tc.ParallelFor(len(a.scores), 8, func(tc *qthreads.TC, lo, hi int) {
			var sum int64
			for _, s := range a.scores[lo:hi] {
				sum += int64(s)
			}
			a.got.Add(sum)
			a.done.Add(int64(hi - lo))
			tc.Execute(machine.Work{Ops: a.perPair * float64(hi-lo), Activity: a.activity})
		})
	}
}

// Validate compares the number of pairs aligned and the score sum with
// the serial reference: a pair lost or aligned twice moves the count even
// when its score is 0.
func (a *Alignment) Validate() error {
	if got := a.done.Load(); got != int64(len(a.scores)) {
		return fmt.Errorf("alignment: %d pairs aligned, want %d", got, len(a.scores))
	}
	if got := a.got.Load(); got != a.want {
		return fmt.Errorf("alignment: score sum = %d, want %d", got, a.want)
	}
	return nil
}

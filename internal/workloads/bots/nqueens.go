package bots

import (
	"fmt"
	"sync/atomic"

	"repro/internal/compiler"
	"repro/internal/machine"
	"repro/internal/qthreads"
	"repro/internal/workloads"
)

// NQueens is BOTS n-queens *with cutoff*: tasks are spawned for board
// prefixes down to a cutoff depth and the remaining search runs serially
// inside each task. Compute-bound, near-linear scaling (paper Figures
// 3/4).
type NQueens struct {
	p  workloads.Params
	cg compiler.CodeGen

	n      int
	cutoff int

	wantCount int64
	wantNodes int64
	gotCount  atomic.Int64

	cyclesPerNode float64
	activity      float64
}

// BOTS-like parameters: a 13-queens board with the task cutoff 3 rows
// deep (~1,700 coarse tasks; 73,712 solutions).
const (
	botsNQueensN      = 13
	botsNQueensCutoff = 3
)

// NewNQueens creates the workload.
func NewNQueens() *NQueens { return &NQueens{} }

// Name returns the canonical app name.
func (q *NQueens) Name() string { return compiler.AppNQueensCutoff }

// nqueensRef is the serial reference of one board size: the solution
// count and the search nodes visited finding it.
type nqueensRef struct{ count, nodes int64 }

// nqueensRefs is keyed by board size, the only thing the count depends
// on.
var nqueensRefs workloads.Memo[int, nqueensRef]

// countNQueens searches the whole n×n board serially.
func countNQueens(n int) nqueensRef {
	var r nqueensRef
	r.count = countBoard(n, 0, 0, 0, 0, &r.nodes)
	return r
}

// Prepare counts the reference serially (once per board size) and
// calibrates charges.
func (q *NQueens) Prepare(p workloads.Params) error {
	p = p.WithDefaults()
	cg, err := workloads.Lookup(q.Name(), p.Target)
	if err != nil {
		return err
	}
	q.p, q.cg = p, cg
	q.n = botsNQueensN
	q.cutoff = botsNQueensCutoff

	ref := nqueensRefs.Get(q.n, countNQueens)
	q.wantCount, q.wantNodes = ref.count, ref.nodes

	total, act, err := computeCalib(p.MachineConfig, q.Name(), p.Target, p.Scale)
	if err != nil {
		return err
	}
	q.cyclesPerNode = total / float64(q.wantNodes)
	q.activity = act
	return nil
}

// countBoard is the bitboard backtracking search shared by reference and
// leaf tasks.
func countBoard(n, row int, cols, diag1, diag2 uint32, nodes *int64) int64 {
	*nodes++
	if row == n {
		return 1
	}
	var count int64
	free := ^(cols | diag1 | diag2) & (1<<uint(n) - 1)
	for free != 0 {
		bit := free & (-free)
		free ^= bit
		count += countBoard(n, row+1, cols|bit, (diag1|bit)<<1, (diag2|bit)>>1, nodes)
	}
	return count
}

// Root returns the benchmark body.
func (q *NQueens) Root() qthreads.Task {
	return func(tc *qthreads.TC) {
		q.gotCount.Store(0)
		q.explore(tc, 0, 0, 0, 0)
		tc.Sync()
	}
}

func (q *NQueens) explore(tc *qthreads.TC, row int, cols, diag1, diag2 uint32) {
	if row >= q.cutoff {
		var nodes int64
		q.gotCount.Add(countBoard(q.n, row, cols, diag1, diag2, &nodes))
		tc.Execute(machine.Work{Ops: float64(nodes) * q.cyclesPerNode, Activity: q.activity})
		return
	}
	free := ^(cols | diag1 | diag2) & (1<<uint(q.n) - 1)
	for free != 0 {
		bit := free & (-free)
		free ^= bit
		c, d1, d2 := cols|bit, (diag1|bit)<<1, (diag2|bit)>>1
		tc.Spawn(func(tc *qthreads.TC) { q.explore(tc, row+1, c, d1, d2) })
	}
	tc.Sync()
}

// Validate checks the solution count.
func (q *NQueens) Validate() error {
	if got := q.gotCount.Load(); got != q.wantCount {
		return fmt.Errorf("bots-nqueens: %d solutions, want %d", got, q.wantCount)
	}
	return nil
}

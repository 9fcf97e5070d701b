// Package bots implements the Barcelona OpenMP Task Suite benchmarks the
// paper evaluates (§II, reference [4]): protein alignment (-for and
// -single variants), Fibonacci with cutoff, the health system simulation,
// n-queens with cutoff, sort with cutoff, sparse LU decomposition (-for
// and -single), and Strassen matrix multiplication. Each is a real
// algorithm with BOTS' task-generation pattern and cutoff structure,
// charging calibrated costs to the simulated machine (see package
// workloads). The micro-benchmarks' n-queens and Fibonacci are the same
// algorithms without the tuning, so they run the kernels here:
// NewNQueensBoard and FibTree.
package bots

import (
	"fmt"
	"sync/atomic"

	"repro/internal/compiler"
	"repro/internal/machine"
	"repro/internal/qthreads"
	"repro/internal/workloads"
)

// NQueens is n-queens *with cutoff*: tasks are spawned for board
// prefixes down to a spawn depth and the remaining search runs serially
// inside each task. Compute-bound, near-linear scaling (paper Figures
// 3/4).
type NQueens struct {
	app        string
	n          int
	spawnDepth int

	wantCount int64
	wantNodes int64
	gotCount  atomic.Int64

	cyclesPerNode float64
	activity      float64
}

// NewNQueens creates BOTS n-queens: a 13-queens board with the task
// cutoff 3 rows deep (~1,700 coarse tasks; 73,712 solutions).
func NewNQueens() *NQueens { return NewNQueensBoard(compiler.AppNQueensCutoff, 13, 3) }

// NewNQueensBoard creates the search of an n×n board, calibrated as the
// named app, that spawns a task per partial placement of the first
// spawnDepth rows.
func NewNQueensBoard(app string, n, spawnDepth int) *NQueens {
	return &NQueens{app: app, n: n, spawnDepth: spawnDepth}
}

// Name returns the canonical app name.
func (q *NQueens) Name() string { return q.app }

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
// calibrates charges: the run's cycles spread over the real search
// nodes.
func (q *NQueens) Prepare(p workloads.Params) error {
	p = p.WithDefaults()
	total, act, err := workloads.ComputeCalib(p.MachineConfig, q.app, p.Target, p.Scale)
	if err != nil {
		return err
	}
	ref := nqueensRefs.Get(q.n, countNQueens)
	q.wantCount, q.wantNodes = ref.count, ref.nodes
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

// explore spawns subtree tasks down to spawnDepth, then searches serially
// and charges the simulated cost of the real nodes it visited.
func (q *NQueens) explore(tc *qthreads.TC, row int, cols, diag1, diag2 uint32) {
	if row >= q.spawnDepth {
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
		return fmt.Errorf("%s: %d solutions, want %d", q.app, got, q.wantCount)
	}
	return nil
}

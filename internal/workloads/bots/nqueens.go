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

	ref      *nqueensRef
	gotCount atomic.Int64
	gotNodes atomic.Int64
	// missing counts leaf tasks whose board state the reference has no
	// entry for.
	missing atomic.Int64

	cyclesPerNode float64
	activity      float64
}

// NewNQueens creates BOTS n-queens: a 13-queens board with the task
// cutoff 3 rows deep (~1,700 coarse tasks; 73,712 solutions).
func NewNQueens() *NQueens { return NewNQueensBoard(compiler.AppNQueensCutoff, 13, 3) }

// NewNQueensBoard creates the search of an n×n board (n ≤ 32, the
// bitboard width), calibrated as the named app, that spawns a task per
// partial placement of the first spawnDepth rows.
func NewNQueensBoard(app string, n, spawnDepth int) *NQueens {
	return &NQueens{app: app, n: n, spawnDepth: spawnDepth}
}

// Name returns the canonical app name.
func (q *NQueens) Name() string { return q.app }

// nqueensKey is what a reference depends on: the board size and the row
// at which tasks stop spawning and search serially.
type nqueensKey struct{ n, spawnDepth int }

// leafKey is a leaf task's board state, the only input of its serial
// search besides the board size.
type leafKey struct{ cols, diag1, diag2 uint32 }

// leafResult is one leaf search: the solutions below the leaf and the
// search nodes visited finding them, the leaf's own node included.
type leafResult struct{ solutions, nodes int64 }

// nqueensRef is the serial reference of one board and spawn depth: the
// solution count, the search nodes visited finding it, and the result of
// every leaf task's search. Leaf tasks read their result from leaves
// instead of searching again: the search is a pure function of the leaf
// state, so a run computing it anew would get the same numbers.
type nqueensRef struct {
	count, nodes int64
	leaves       map[leafKey]leafResult
}

// nqueensRefs holds one entry per board size up to the bitboard's 32
// columns, keyed by the spawn depth too, so the micro-benchmark's
// 12-queens board and BOTS' 13-queens board each keep their reference
// when cells interleave the two.
var nqueensRefs [33]workloads.Memo[nqueensKey, *nqueensRef]

// buildNQueensRef walks the spawn prefixes as explore does and searches
// each leaf serially. The prefix nodes plus the leaf searches' nodes are
// exactly the nodes of one serial search of the whole board.
func buildNQueensRef(k nqueensKey) *nqueensRef {
	r := &nqueensRef{leaves: make(map[leafKey]leafResult)}
	var walk func(row int, cols, diag1, diag2 uint32)
	walk = func(row int, cols, diag1, diag2 uint32) {
		if row >= k.spawnDepth {
			var leaf leafResult
			leaf.solutions = countBoard(k.n, row, cols, diag1, diag2, &leaf.nodes)
			r.leaves[leafKey{cols, diag1, diag2}] = leaf
			r.count += leaf.solutions
			r.nodes += leaf.nodes
			return
		}
		r.nodes++
		free := ^(cols | diag1 | diag2) & (1<<uint(k.n) - 1)
		for free != 0 {
			bit := free & (-free)
			free ^= bit
			walk(row+1, cols|bit, (diag1|bit)<<1, (diag2|bit)>>1)
		}
	}
	walk(0, 0, 0, 0)
	return r
}

// Prepare builds the reference serially (once per board and spawn
// depth) and calibrates charges: the run's cycles spread over the real
// search nodes.
func (q *NQueens) Prepare(p workloads.Params) error {
	p = p.WithDefaults()
	total, act, err := workloads.ComputeCalib(p.MachineConfig, q.app, p.Target, p.Scale)
	if err != nil {
		return err
	}
	q.ref = nqueensRefs[q.n].Get(nqueensKey{q.n, q.spawnDepth}, buildNQueensRef)
	q.cyclesPerNode = total / float64(q.ref.nodes)
	q.activity = act
	return nil
}

// countBoard is the bitboard backtracking search the reference runs
// under every leaf.
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
		q.gotNodes.Store(0)
		q.missing.Store(0)
		q.explore(tc, 0, 0, 0, 0)
		tc.Sync()
	}
}

// explore spawns subtree tasks down to spawnDepth; each leaf task takes
// its search's result from the reference and charges the simulated cost
// of the nodes that search visits.
func (q *NQueens) explore(tc *qthreads.TC, row int, cols, diag1, diag2 uint32) {
	if row >= q.spawnDepth {
		leaf, ok := q.ref.leaves[leafKey{cols, diag1, diag2}]
		if !ok {
			q.missing.Add(1)
			return
		}
		q.gotCount.Add(leaf.solutions)
		q.gotNodes.Add(leaf.nodes)
		tc.Execute(machine.Work{Ops: float64(leaf.nodes) * q.cyclesPerNode, Activity: q.activity})
		return
	}
	q.gotNodes.Add(1)
	free := ^(cols | diag1 | diag2) & (1<<uint(q.n) - 1)
	for free != 0 {
		bit := free & (-free)
		free ^= bit
		c, d1, d2 := cols|bit, (diag1|bit)<<1, (diag2|bit)>>1
		tc.Spawn(func(tc *qthreads.TC) { q.explore(tc, row+1, c, d1, d2) })
	}
	tc.Sync()
}

// Validate checks that every leaf task found its reference entry, and
// the solution count and the search nodes against the serial reference:
// a leaf lost or run twice moves the node total even when it holds no
// solution.
func (q *NQueens) Validate() error {
	if m := q.missing.Load(); m != 0 {
		return fmt.Errorf("%s: %d leaf tasks have no reference entry", q.app, m)
	}
	if got := q.gotCount.Load(); got != q.ref.count {
		return fmt.Errorf("%s: %d solutions, want %d", q.app, got, q.ref.count)
	}
	if got := q.gotNodes.Load(); got != q.ref.nodes {
		return fmt.Errorf("%s: %d search nodes, want %d", q.app, got, q.ref.nodes)
	}
	return nil
}

package bots

import (
	"fmt"
	"testing"

	"repro/internal/compiler"
	"repro/internal/workloads"
)

// nqueensBoards are the two boards the suite runs: the micro-benchmark's
// and BOTS'.
var nqueensBoards = []nqueensKey{{12, 2}, {13, 3}}

// TestNQueensLeafTable: the reference's leaf results plus the prefix
// nodes reproduce one plain serial search of the whole board, every
// prefix the spawn walk reaches has its own entry, and a run's leaf
// tasks all find theirs.
func TestNQueensLeafTable(t *testing.T) {
	for _, k := range nqueensBoards {
		t.Run(fmt.Sprintf("%dq-depth%d", k.n, k.spawnDepth), func(t *testing.T) {
			ref := buildNQueensRef(k)
			var plainNodes int64
			plainCount := countBoard(k.n, 0, 0, 0, 0, &plainNodes)

			// The prefixes explore spawns, walked without the reference.
			var prefixNodes int64
			leaves := 0
			var walk func(row int, cols, diag1, diag2 uint32)
			walk = func(row int, cols, diag1, diag2 uint32) {
				if row >= k.spawnDepth {
					leaves++
					if _, ok := ref.leaves[leafKey{cols, diag1, diag2}]; !ok {
						t.Errorf("no entry for leaf cols=%#x diag1=%#x diag2=%#x", cols, diag1, diag2)
					}
					return
				}
				prefixNodes++
				free := ^(cols | diag1 | diag2) & (1<<uint(k.n) - 1)
				for free != 0 {
					bit := free & (-free)
					free ^= bit
					walk(row+1, cols|bit, (diag1|bit)<<1, (diag2|bit)>>1)
				}
			}
			walk(0, 0, 0, 0)
			if leaves != len(ref.leaves) {
				t.Errorf("%d leaves spawned, %d entries: two leaves share a board state", leaves, len(ref.leaves))
			}

			var count, nodes int64
			for _, l := range ref.leaves {
				count += l.solutions
				nodes += l.nodes
			}
			if count != plainCount || prefixNodes+nodes != plainNodes {
				t.Errorf("table: %d solutions over %d + %d nodes; plain search: %d over %d", count, prefixNodes, nodes, plainCount, plainNodes)
			}
			if ref.count != plainCount || ref.nodes != plainNodes {
				t.Errorf("reference totals %d / %d, plain search %d / %d", ref.count, ref.nodes, plainCount, plainNodes)
			}

			// A run's Validate fails if any leaf task found no entry.
			mustRun(t, mustPrepare(t, NewNQueensBoard(compiler.AppNQueens, k.n, k.spawnDepth), workloads.Params{Scale: 0.1}))
		})
	}
}

// TestNQueensValidateCountsLeaves: a run that lost one leaf task, or ran
// one twice, fails Validate, also when the leaf holds no solution and so
// leaves the solution count as it was. Every 12-queens leaf two rows deep
// has solutions; the 13-queens board three rows deep has leaves of both
// kinds.
func TestNQueensValidateCountsLeaves(t *testing.T) {
	emptyLeaves := 0
	for _, k := range nqueensBoards {
		t.Run(fmt.Sprintf("%dq-depth%d", k.n, k.spawnDepth), func(t *testing.T) {
			q := mustPrepare(t, NewNQueensBoard(compiler.AppNQueens, k.n, k.spawnDepth), workloads.Params{Scale: 0.1}).(*NQueens)
			mustRun(t, q)
			// One leaf of each kind the board has: with and without
			// solutions.
			kinds := map[bool]leafResult{}
			for _, l := range q.ref.leaves {
				kinds[l.solutions == 0] = l
			}
			if _, ok := kinds[true]; ok {
				emptyLeaves++
			}
			for _, l := range kinds {
				for _, times := range []int64{-1, 1} { // lost, repeated
					q.gotCount.Add(times * l.solutions)
					q.gotNodes.Add(times * l.nodes)
					if err := q.Validate(); err == nil {
						t.Errorf("a run with leaf %+v counted %+d times extra validates", l, times)
					}
					q.gotCount.Add(-times * l.solutions)
					q.gotNodes.Add(-times * l.nodes)
				}
			}
			q.missing.Add(1)
			if err := q.Validate(); err == nil {
				t.Error("a run with a leaf that found no entry validates")
			}
			q.missing.Add(-1)
			if err := q.Validate(); err != nil {
				t.Errorf("restored run: %v", err)
			}
		})
	}
	if emptyLeaves == 0 {
		t.Error("no board has a leaf without solutions: the zero-solution case went untested")
	}
}

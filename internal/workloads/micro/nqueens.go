package micro

import (
	"repro/internal/compiler"
	"repro/internal/workloads/bots"
)

// NewNQueens creates the untuned micro-benchmark n-queens solver: BOTS'
// search on a 12-queens board (14,200 solutions over ~857k search
// nodes) with a task per placement of the first two rows only. It is
// compute-bound with a branchy, modest-IPC instruction stream (the
// paper measures only 118 W at 16 threads) and scales to the full 16
// threads (§II-C.4).
func NewNQueens() *bots.NQueens { return bots.NewNQueensBoard(compiler.AppNQueens, 12, 2) }

package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// workers resolves the Lab's parallelism: Parallel when positive,
// GOMAXPROCS when zero.
func (lab *Lab) workers() int {
	n := lab.Parallel
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		n = 1
	}
	return n
}

// runCells runs fn(0) … fn(n-1) — one independent experiment cell each —
// on a bounded worker pool. Cells must write their results into
// index-addressed slots so the output order never depends on scheduling.
//
// The lowest-index error is returned, so the reported failure is
// scheduling-independent; cells above the lowest failed index so far are
// cancelled (skipped before they start) because no error they could
// produce can win, while every cell below it still runs to completion —
// a later, lower-index failure must still take precedence. With one
// worker the cells therefore run in index order and none starts after
// the first failure.
func (lab *Lab) runCells(n int, fn func(i int) error) error {
	workers := lab.workers()
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	var next atomic.Int64
	var firstErr atomic.Int64 // lowest failed index so far; n = none
	firstErr.Store(int64(n))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if int64(i) > firstErr.Load() {
					continue // doomed: a lower-index cell already failed
				}
				if err := fn(i); err != nil {
					errs[i] = err
					for {
						cur := firstErr.Load()
						if int64(i) >= cur || firstErr.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	if w := firstErr.Load(); w < int64(n) {
		return errs[w]
	}
	return nil
}

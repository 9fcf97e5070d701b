package workloads

import "sync"

// Memo keeps the input and serial reference a workload type built last,
// so the cells of a sweep that share an input (every thread count of a
// figure, every arm of a throttle table) build it once. It holds one
// entry and the latest key wins: memory stays bounded at one input per
// type (which then stays live for the life of the process: about 77 MB
// at Scale 1, 35.7 MB of it the six bots types, 28 MB of that sort's
// sorted leaf blocks and its six merge levels and 24 bytes health's
// totals, 40 MB the micro reduction's and mergesort's arrays, 16 MB of
// that mergesort's sorted halves and sorted array, 0.55 MB the BT
// proxy's grid, and 0.3 MB lulesh's and dijkstra's references), and a
// different seed or size simply rebuilds. n-queens keeps one Memo per
// board size, so the micro (12-queens) and BOTS (13-queens) programs,
// interleaved in Table I, each build their reference once. For
// n-queens, alignment, sort and mergesort the reference includes the
// result of every task that is a pure function of its arguments, and
// for the sorts also the output of every merge, which the run's tasks
// read instead of recomputing (see the package doc). The
// value is shared between instances on concurrent machines, so it must
// be immutable once built: a run copies its working state out of it and
// writes nothing reachable from it. The zero Memo is ready to use.
type Memo[K comparable, V any] struct {
	mu    sync.Mutex
	key   K
	val   V
	built bool
}

// Get returns the value for key, calling build only when the entry holds
// another key. build is handed nothing but the key: pass a plain function
// and the value cannot depend on anything else. The lock is held across
// build, so concurrent callers for one key wait for a single build
// instead of each running their own.
func (m *Memo[K, V]) Get(key K, build func(K) V) V {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.built || m.key != key {
		// Built before it is stored: a panicking build leaves the
		// previous entry, never a half-made one.
		m.val = build(key)
		m.key, m.built = key, true
	}
	return m.val
}

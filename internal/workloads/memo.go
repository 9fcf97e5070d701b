package workloads

import "sync"

// Memo keeps the input and serial reference a workload type built last,
// so the cells of a sweep that share an input (every thread count of a
// figure, every arm of a throttle table) build it once. It holds one
// entry and the latest key wins: memory stays bounded at one input per
// type (which then stays live for the life of the process: 7.7 MB over
// the five memoized bots types at Scale 1), and a different seed or size
// simply rebuilds. The n-queens type serves both the BOTS and the micro
// program, on different boards, so cells interleaving the two rebuild
// its entry (a 12- or 13-queens count). The value is shared between
// instances on concurrent machines, so it must be immutable once built:
// a run copies its working state out of it and writes nothing reachable
// from it. The zero Memo is ready to use.
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

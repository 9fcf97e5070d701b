package workloads

import (
	"sync"
	"testing"
)

func TestMemoLatestKeyWins(t *testing.T) {
	var m Memo[int, *int]
	builds := 0
	get := func(k int) *int {
		return m.Get(k, func(k int) *int { builds++; return &k })
	}
	a := get(1)
	if get(1) != a || builds != 1 {
		t.Fatalf("same key rebuilt: %d builds", builds)
	}
	if b := get(2); *b != 2 || builds != 2 {
		t.Fatalf("new key: value %d after %d builds, want 2 after 2", *b, builds)
	}
	// One entry: the first key was displaced and builds again.
	if c := get(1); c == a || *c != 1 || builds != 3 {
		t.Fatalf("displaced key: fresh=%v value %d after %d builds", c != a, *c, builds)
	}
}

func TestMemoConcurrentCallersShareOneBuild(t *testing.T) {
	var m Memo[string, *int]
	builds := 0 // guarded by the memo's lock, which -race checks
	got := make([]*int, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = m.Get("k", func(string) *int { builds++; return new(int) })
		}()
	}
	wg.Wait()
	if builds != 1 {
		t.Errorf("%d builds for one key, want 1", builds)
	}
	for i, p := range got {
		if p != got[0] {
			t.Errorf("caller %d got a different value", i)
		}
	}
}

func TestMemoFailedBuildIsNotCached(t *testing.T) {
	var m Memo[int, int]
	m.Get(1, func(int) int { return 10 })
	func() {
		defer func() { _ = recover() }()
		m.Get(2, func(int) int { panic("build failed") })
	}()
	// The lock was released, key 2 was not stored, key 1 still is.
	if v := m.Get(1, func(int) int { return -1 }); v != 10 {
		t.Errorf("previous entry lost after a failed build: %d", v)
	}
	if v := m.Get(2, func(int) int { return 20 }); v != 20 {
		t.Errorf("failed build was cached: %d", v)
	}
}

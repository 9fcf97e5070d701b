// Package resilience hardens the rcrd service path: a self-healing IPC
// client (queries retried with deterministic jitter and replica
// failover, a push-stream follower that resubscribes after every loss)
// and crash-safe daemon state (versioned, checksummed snapshot files
// written by atomic rename). docs/robustness.md §Service resilience is
// the narrative companion.
package resilience

import "time"

// Backoff computes retry delays: exponential growth from Base doubling
// per attempt up to Max, each delay jittered deterministically from Seed
// into [delay/2, delay]. Determinism matters here the same way it does
// for fault schedules (internal/faults): a failing corpus run names
// its seed, and replaying that seed replays the exact retry timeline.
type Backoff struct {
	// Base is the attempt-0 delay; zero selects 10 ms.
	Base time.Duration
	// Max caps the grown delay; zero selects 16× Base.
	Max time.Duration
	// Seed drives the jitter stream. Two clients with different seeds
	// desynchronize even when they fail at the same instant.
	Seed uint64
}

// splitmix64 is the repo's stateless PRNG (see internal/faults): one
// multiply-xorshift pass with full 64-bit avalanche.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Delay returns the jittered delay before retry number attempt (0-based).
// It is a pure function of (Backoff, attempt).
func (b Backoff) Delay(attempt int) time.Duration {
	base := b.Base
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	max := b.Max
	if max <= 0 {
		max = 16 * base
	}
	if attempt < 0 {
		attempt = 0
	}
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	// Jitter into [d/2, d]: full-jitter would let delays collapse to ~0
	// and hammer a recovering server; half-jitter keeps the exponential
	// spacing while still de-correlating clients.
	r := splitmix64(b.Seed ^ uint64(attempt)<<32)
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(r%uint64(half+1))
}

package faults

import (
	"sync/atomic"
)

// FailSafe is a shared fail-safe latch: any component that loses trust
// in its sensors trips it, and throttling components observe it and
// release to full concurrency while it is engaged. It is the host-side
// counterpart of the MAESTRO daemon's internal watchdog latch — the
// simulator's daemon carries its own, while a wall-clock throttler
// accepts one of these so an external supervisor, or its own
// consecutive-error tracking, can force it open.
//
// All methods are lock-free and safe from any goroutine.
type FailSafe struct {
	engaged atomic.Bool
	reason  atomic.Pointer[string]
	trips   atomic.Uint64
	clears  atomic.Uint64
}

// Trip engages the latch with a reason. Tripping an already-engaged
// latch just updates the reason.
func (f *FailSafe) Trip(reason string) {
	f.reason.Store(&reason)
	if !f.engaged.Swap(true) {
		f.trips.Add(1)
	}
}

// Clear releases the latch.
func (f *FailSafe) Clear() {
	if f.engaged.Swap(false) {
		f.clears.Add(1)
	}
}

// Engaged reports whether the latch is currently tripped.
func (f *FailSafe) Engaged() bool { return f.engaged.Load() }

// Reason returns the most recent trip reason, or "" if never tripped.
func (f *FailSafe) Reason() string {
	if p := f.reason.Load(); p != nil {
		return *p
	}
	return ""
}

// Trips returns how many times the latch went from clear to engaged.
func (f *FailSafe) Trips() uint64 { return f.trips.Load() }

// Clears returns how many times the latch went from engaged to clear.
func (f *FailSafe) Clears() uint64 { return f.clears.Load() }

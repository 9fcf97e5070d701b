package msr

import "sync/atomic"

// Access describes one register read as presented to a hook: which
// scope it targets (core or package), the socket or node-wide core
// index, the register address, and the value about to be returned.
type Access struct {
	Core  bool // core-scoped register (false: package-scoped)
	Index int  // socket index, or node-wide core index when Core
	Addr  uint32
	Value uint64
}

// ReadHook intercepts successful register reads. It returns the value
// the caller observes and an error to substitute for the read — the
// fault-injection seam that models rdmsr failures, stuck counters and
// garbage readouts (see internal/faults). Hooks run outside the register
// file's lock and must not call back into the File.
//
// The hook only sees architectural reads (ReadPackage / ReadCore); the
// raw diagnostic accessors used by the simulation engine itself, such as
// PackageEnergyCounter, bypass it so injected sensor faults never leak
// into the machine's physics.
type ReadHook func(a Access) (uint64, error)

// SetReadHook installs (or, with nil, removes) the file's read hook.
// Safe to call while reads are in flight.
func (f *File) SetReadHook(h ReadHook) {
	if h == nil {
		f.readHook.Store(nil)
		return
	}
	f.readHook.Store(&h)
}

// hookRead applies the read hook, if any, to a completed read.
func (f *File) hookRead(a Access) (uint64, error) {
	if hp := f.readHook.Load(); hp != nil {
		return (*hp)(a)
	}
	return a.Value, nil
}

// hooks is the atomic hook storage embedded in File.
type hooks struct {
	readHook atomic.Pointer[ReadHook]
}

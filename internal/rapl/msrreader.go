package rapl

import (
	"fmt"
	"sync"

	"repro/internal/msr"
	"repro/internal/units"
)

// MSRReader reads MSR_PKG_ENERGY_STATUS from an (emulated) MSR register
// file, accumulating across 32-bit counter wraps. This is the code path a
// real MSR-based measurement tool exercises (paper §II-A: "the
// measurement tools monitor the number of wraps to obtain valid
// application energy consumption numbers").
type MSRReader struct {
	file *msr.File

	mu     sync.Mutex
	last   []uint32  // last raw counter value per socket
	acc    []float64 // accumulated joules per socket
	desync []bool    // read fault since the last accepted sample
}

// NewMSRReader creates a reader over the given register file, zeroed at
// the counters' current values.
func NewMSRReader(file *msr.File) (*MSRReader, error) {
	if file == nil {
		return nil, fmt.Errorf("rapl: nil MSR file")
	}
	r := &MSRReader{
		file:   file,
		last:   make([]uint32, file.Sockets()),
		acc:    make([]float64, file.Sockets()),
		desync: make([]bool, file.Sockets()),
	}
	for s := range r.last {
		v, err := file.ReadPackage(s, msr.MSRPkgEnergyStatus)
		if err != nil {
			return nil, fmt.Errorf("rapl: reading initial counter of socket %d: %w", s, err)
		}
		r.last[s] = uint32(v)
	}
	return r, nil
}

// Domains returns the number of packages.
func (r *MSRReader) Domains() int { return r.file.Sockets() }

// Energy returns the wrap-corrected cumulative energy of a package since
// the reader was created.
//
// Wrap handling across read faults: the 32-bit counter disambiguates at
// most one wrap between two reads, so after a failed read the next
// successful one only resynchronizes the baseline instead of booking a
// delta. Trusting the cross-outage difference would book a near-full
// 2^32 lap (~65 kJ at 15.3 µJ/count) whenever the counter wrapped — or
// merely moved backwards past a stale baseline — during the outage.
// Under-counting the unattributable window is the conservative failure.
func (r *MSRReader) Energy(domain int) (units.Joules, error) {
	if domain < 0 || domain >= r.file.Sockets() {
		return 0, domainError(domain, r.file.Sockets())
	}
	v, err := r.file.ReadPackage(domain, msr.MSRPkgEnergyStatus)
	if err != nil {
		r.mu.Lock()
		r.desync[domain] = true
		r.mu.Unlock()
		return 0, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := uint32(v)
	if r.desync[domain] {
		r.desync[domain] = false
	} else {
		r.acc[domain] += float64(units.RAPLDelta(r.last[domain], cur))
	}
	r.last[domain] = cur
	return units.Joules(r.acc[domain]), nil
}

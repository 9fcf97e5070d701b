package rapl

import (
	"fmt"

	"repro/internal/msr"
	"repro/internal/units"
)

// MSRReader reads MSR_PKG_ENERGY_STATUS from an (emulated) MSR register
// file, accumulating across 32-bit counter wraps. This is the code path a
// real MSR-based measurement tool exercises (paper §II-A: "the
// measurement tools monitor the number of wraps to obtain valid
// application energy consumption numbers").
type MSRReader struct{ counter }

// NewMSRReader creates a reader over the given register file, zeroed at
// the counters' current values.
func NewMSRReader(file *msr.File) (*MSRReader, error) {
	if file == nil {
		return nil, fmt.Errorf("rapl: nil MSR file")
	}
	r := &MSRReader{counter{read: func(socket int) (uint64, error) {
		return file.ReadPackage(socket, msr.MSRPkgEnergyStatus)
	}}}
	for s := 0; s < file.Sockets(); s++ {
		if err := r.addDomain(units.RAPLCounterMod, float64(units.RAPLUnit)); err != nil {
			return nil, fmt.Errorf("rapl: reading initial counter of socket %d: %w", s, err)
		}
	}
	return r, nil
}

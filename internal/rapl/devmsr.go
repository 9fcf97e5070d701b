package rapl

import (
	"encoding/binary"
	"fmt"
	"os"

	"repro/internal/msr"
	"repro/internal/units"
)

// DevMSRReader reads MSR_PKG_ENERGY_STATUS through the Linux msr driver
// (/dev/cpu/N/msr), the interface the paper's tools actually used
// (§II-A) — powercap did not exist yet in 2013. Each register is read by
// pread at the register address; the energy unit comes from
// MSR_RAPL_POWER_UNIT's energy-status-unit field (2^-ESU Joules).
//
// Construction needs one representative CPU per package and read access
// to the device nodes (root, or CAP_SYS_RAWIO); NewDevMSRReader returns
// an error otherwise. The path layout is injectable for tests.
type DevMSRReader struct {
	counter
	files []*os.File
}

// DefaultDevMSRPattern formats the device path for a CPU number.
const DefaultDevMSRPattern = "/dev/cpu/%d/msr"

// NewDevMSRReader opens the msr device of one CPU per package. cpus
// lists a representative CPU number for each package, in package order
// (e.g. []int{0, 8} on the paper's two-socket machine). pattern is a
// fmt string with one %d; empty selects DefaultDevMSRPattern.
func NewDevMSRReader(pattern string, cpus []int) (*DevMSRReader, error) {
	if pattern == "" {
		pattern = DefaultDevMSRPattern
	}
	if len(cpus) == 0 {
		return nil, fmt.Errorf("rapl: no CPUs given")
	}
	r := &DevMSRReader{}
	r.read = func(d int) (uint64, error) { return readMSR(r.files[d], msr.MSRPkgEnergyStatus) }
	for _, cpu := range cpus {
		f, err := os.Open(fmt.Sprintf(pattern, cpu))
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("rapl: opening msr device: %w", err)
		}
		r.files = append(r.files, f)
		unitReg, err := readMSR(f, msr.MSRRAPLPowerUnit)
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("rapl: reading MSR_RAPL_POWER_UNIT: %w", err)
		}
		esu := (unitReg >> 8) & 0x1F
		if err := r.addDomain(units.RAPLCounterMod, 1.0/float64(uint64(1)<<esu)); err != nil {
			r.Close()
			return nil, fmt.Errorf("rapl: reading MSR_PKG_ENERGY_STATUS: %w", err)
		}
	}
	return r, nil
}

// readMSR preads the 8-byte register at its address.
func readMSR(f *os.File, addr uint32) (uint64, error) {
	var buf [8]byte
	if _, err := f.ReadAt(buf[:], int64(addr)); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

// Close releases the device files; reads after Close fail.
func (r *DevMSRReader) Close() error {
	var first error
	for _, f := range r.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

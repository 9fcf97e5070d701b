package rapl

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync"

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
	files []*os.File
	unit  []units.Joules

	mu   sync.Mutex
	last []uint32
	acc  []float64
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
	r := &DevMSRReader{
		unit: make([]units.Joules, len(cpus)),
		last: make([]uint32, len(cpus)),
		acc:  make([]float64, len(cpus)),
	}
	for _, cpu := range cpus {
		f, err := os.Open(fmt.Sprintf(pattern, cpu))
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("rapl: opening msr device: %w", err)
		}
		r.files = append(r.files, f)
	}
	for d, f := range r.files {
		unitReg, err := readMSR(f, msr.MSRRAPLPowerUnit)
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("rapl: reading MSR_RAPL_POWER_UNIT: %w", err)
		}
		esu := (unitReg >> 8) & 0x1F
		r.unit[d] = units.Joules(1.0 / float64(uint64(1)<<esu))
		v, err := readMSR(f, msr.MSRPkgEnergyStatus)
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("rapl: reading MSR_PKG_ENERGY_STATUS: %w", err)
		}
		r.last[d] = uint32(v)
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

// Domains returns the number of packages.
func (r *DevMSRReader) Domains() int { return len(r.files) }

// Name returns "package-N".
func (r *DevMSRReader) Name(domain int) string { return fmt.Sprintf("package-%d", domain) }

// Energy returns the wrap-corrected cumulative energy of a package since
// the reader was created.
func (r *DevMSRReader) Energy(domain int) (units.Joules, error) {
	if domain < 0 || domain >= len(r.files) {
		return 0, domainError(domain, len(r.files))
	}
	v, err := readMSR(r.files[domain], msr.MSRPkgEnergyStatus)
	if err != nil {
		return 0, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := uint32(v)
	delta := units.RAPLCountDelta(r.last[domain], cur)
	r.last[domain] = cur
	r.acc[domain] += float64(delta) * float64(r.unit[domain])
	return units.Joules(r.acc[domain]), nil
}

// Close releases the device files.
func (r *DevMSRReader) Close() error {
	var first error
	for _, f := range r.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	r.files = nil
	return first
}

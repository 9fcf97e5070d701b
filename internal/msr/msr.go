// Package msr emulates the subset of Intel Sandybridge model-specific
// registers that the paper's measurement and throttling stack touches:
//
//   - MSR_PKG_ENERGY_STATUS (0x611): per-package 32-bit energy counter in
//     15.3 µJ units, wrapping modulo 2^32 (paper §II-A).
//   - IA32_CLOCK_MODULATION (0x19A): per-core duty-cycle control. On real
//     Sandybridge the encoding is 1/16 steps with an extended half-step
//     bit; the paper reports an effective minimum of 1/32 of nominal
//     frequency, so this emulation uses a 5-bit level field in 1/32 steps.
//   - MSR_RAPL_POWER_UNIT (0x606): unit register; the energy-status unit
//     is fixed at units.RAPLUnit.
//
// A File holds the registers of one node (all sockets, all cores) and is
// safe for concurrent use. The simulated machine writes it; the RAPL
// reader and RCR daemon read it, exercising the same wrap-handling code
// paths that real hardware requires.
//
// No program reads a core's temperature or cycle count through a
// register, so IA32_THERM_STATUS and the time-stamp counter are not
// emulated: the RCR sampler takes die temperature from the machine's
// snapshot, and a read of either address faults like any unimplemented
// register.
package msr

import (
	"fmt"
	"sync"

	"repro/internal/units"
)

// Register addresses, matching the Intel SDM numbering so that code reads
// like its hardware counterpart.
const (
	IA32ClockModulation uint32 = 0x19A
	MSRRAPLPowerUnit    uint32 = 0x606
	MSRPkgEnergyStatus  uint32 = 0x611
)

// DutyLevels is the number of duty-cycle steps: level L runs the core at
// L/DutyLevels of nominal frequency. Level 0 is reserved and treated as 1.
const DutyLevels = 32

// Clock-modulation register layout (see package comment for the 1/32
// divergence from stock Sandybridge).
const (
	clockModEnableBit uint64 = 1 << 5
	clockModLevelMask uint64 = 0x1F
	raplESUEncoded    uint64 = 0x10 << 8 // energy-status unit field, 2^-16 J nominal
)

// AddrError reports an access to an unimplemented or wrongly-scoped
// register, mirroring the #GP fault a real rdmsr would raise.
type AddrError struct {
	Addr uint32
	Op   string
}

func (e *AddrError) Error() string {
	return fmt.Sprintf("msr: %s of unimplemented or wrongly scoped register %#x", e.Op, e.Addr)
}

// RangeError reports an out-of-range socket or core index.
type RangeError struct {
	Kind  string // "socket" or "core"
	Index int
	Limit int
}

func (e *RangeError) Error() string {
	return fmt.Sprintf("msr: %s index %d out of range [0,%d)", e.Kind, e.Index, e.Limit)
}

// pkgRegs is the register set of one package, coreRegs of one core. The
// implemented set is fixed (see the package comment), so each register is
// a field and a File is two flat arrays: the engine's per-step energy
// accumulation is an indexed add.
type pkgRegs struct {
	raplPowerUnit   uint64
	pkgEnergyStatus uint64
	// energyRem is the sub-count energy remainder, carried so that
	// quantization to 15.3 µJ units never loses energy across calls.
	energyRem float64
}

type coreRegs struct {
	clockModulation uint64
}

// reg resolves a package-scoped register address, nil when the address
// is unimplemented or core-scoped.
func (p *pkgRegs) reg(addr uint32) *uint64 {
	switch addr {
	case MSRRAPLPowerUnit:
		return &p.raplPowerUnit
	case MSRPkgEnergyStatus:
		return &p.pkgEnergyStatus
	}
	return nil
}

// reg resolves a core-scoped register address, nil when the address is
// unimplemented or package-scoped.
func (c *coreRegs) reg(addr uint32) *uint64 {
	if addr == IA32ClockModulation {
		return &c.clockModulation
	}
	return nil
}

// File is the register file of one simulated node. The zero value is not
// usable; construct with NewFile.
type File struct {
	hooks // fault-injection read hook (see hook.go)

	mu    sync.Mutex
	pkgs  []pkgRegs  // by socket
	cores []coreRegs // by node-wide core index
}

// NewFile creates a register file for a node with the given topology.
// It panics if either argument is non-positive, matching the convention
// that topology errors are programming errors.
func NewFile(sockets, coresPerSocket int) *File {
	if sockets <= 0 || coresPerSocket <= 0 {
		panic("msr: NewFile requires positive sockets and coresPerSocket")
	}
	f := &File{
		pkgs:  make([]pkgRegs, sockets),
		cores: make([]coreRegs, sockets*coresPerSocket),
	}
	for i := range f.pkgs {
		f.pkgs[i].raplPowerUnit = raplESUEncoded
	}
	return f
}

// Sockets returns the number of packages in the file.
func (f *File) Sockets() int { return len(f.pkgs) }

// Cores returns the total number of cores in the file.
func (f *File) Cores() int { return len(f.cores) }

// ReadPackage reads a package-scoped register of the given socket. An
// installed read hook sees the value last and may substitute a fault.
func (f *File) ReadPackage(socket int, addr uint32) (uint64, error) {
	if socket < 0 || socket >= len(f.pkgs) {
		return 0, &RangeError{Kind: "socket", Index: socket, Limit: len(f.pkgs)}
	}
	r := f.pkgs[socket].reg(addr)
	if r == nil {
		return 0, &AddrError{Addr: addr, Op: "read"}
	}
	f.mu.Lock()
	v := *r
	f.mu.Unlock()
	return f.hookRead(Access{Index: socket, Addr: addr, Value: v})
}

// WritePackage writes a package-scoped register of the given socket.
func (f *File) WritePackage(socket int, addr uint32, v uint64) error {
	if socket < 0 || socket >= len(f.pkgs) {
		return &RangeError{Kind: "socket", Index: socket, Limit: len(f.pkgs)}
	}
	r := f.pkgs[socket].reg(addr)
	if r == nil {
		return &AddrError{Addr: addr, Op: "write"}
	}
	f.mu.Lock()
	*r = v
	f.mu.Unlock()
	return nil
}

// ReadCore reads a core-scoped register of the given core (node-wide core
// index). An installed read hook sees the value last and may substitute
// a fault.
func (f *File) ReadCore(core int, addr uint32) (uint64, error) {
	if core < 0 || core >= len(f.cores) {
		return 0, &RangeError{Kind: "core", Index: core, Limit: len(f.cores)}
	}
	r := f.cores[core].reg(addr)
	if r == nil {
		return 0, &AddrError{Addr: addr, Op: "read"}
	}
	f.mu.Lock()
	v := *r
	f.mu.Unlock()
	return f.hookRead(Access{Core: true, Index: core, Addr: addr, Value: v})
}

// WriteCore writes a core-scoped register of the given core.
func (f *File) WriteCore(core int, addr uint32, v uint64) error {
	if core < 0 || core >= len(f.cores) {
		return &RangeError{Kind: "core", Index: core, Limit: len(f.cores)}
	}
	r := f.cores[core].reg(addr)
	if r == nil {
		return &AddrError{Addr: addr, Op: "write"}
	}
	f.mu.Lock()
	*r = v
	f.mu.Unlock()
	return nil
}

// AddPackageEnergies accumulates e[s] into socket s's
// MSR_PKG_ENERGY_STATUS counter for every entry of e, in socket order,
// under one acquisition of the file's lock: the engine's per-step update
// of every counter. Each counter is quantized to units.RAPLUnit, carries
// its sub-unit remainder so no energy is ever lost, and wraps modulo 2^32
// exactly like the hardware counter. Non-positive entries are ignored.
func (f *File) AddPackageEnergies(e []units.Joules) error {
	if len(e) > len(f.pkgs) {
		return &RangeError{Kind: "socket", Index: len(e) - 1, Limit: len(f.pkgs)}
	}
	f.mu.Lock()
	for s, j := range e {
		if j > 0 {
			f.pkgs[s].addEnergy(j)
		}
	}
	f.mu.Unlock()
	return nil
}

// addEnergy is the counter update of AddPackageEnergies for a positive
// e; the caller holds the file's lock.
func (p *pkgRegs) addEnergy(e units.Joules) {
	p.energyRem += float64(e) / float64(units.RAPLUnit)
	whole := uint64(p.energyRem)
	p.energyRem -= float64(whole)
	p.pkgEnergyStatus = (p.pkgEnergyStatus + whole) % units.RAPLCounterMod
}

// PackageEnergyCounter returns the current raw 32-bit energy counter of a
// socket. It panics on range errors (callers obtain the socket count from
// this File). Unlike ReadPackage this accessor bypasses any installed
// read hook: it is the simulation engine's own diagnostic view of the
// counter, which injected sensor faults must never corrupt.
func (f *File) PackageEnergyCounter(socket int) uint32 {
	if socket < 0 || socket >= len(f.pkgs) {
		panic(&RangeError{Kind: "socket", Index: socket, Limit: len(f.pkgs)})
	}
	f.mu.Lock()
	v := f.pkgs[socket].pkgEnergyStatus
	f.mu.Unlock()
	return uint32(v)
}

// EncodeClockModulation builds an IA32_CLOCK_MODULATION value. When enable
// is false the returned value is 0 (modulation off, full speed). Level is
// clamped to [1, DutyLevels]; DutyLevels means full speed with the enable
// bit still set.
func EncodeClockModulation(enable bool, level int) uint64 {
	if !enable {
		return 0
	}
	if level < 1 {
		level = 1
	}
	if level > DutyLevels {
		level = DutyLevels
	}
	return clockModEnableBit | (uint64(level) & clockModLevelMask)
}

// DecodeClockModulation extracts (enabled, level) from a register value.
// Level is meaningful only when enabled; level 0 decodes as 1 (the
// reserved encoding runs at the minimum duty, matching hardware behaviour
// of reserved values being clamped).
func DecodeClockModulation(v uint64) (enabled bool, level int) {
	enabled = v&clockModEnableBit != 0
	level = int(v & clockModLevelMask)
	if level == 0 {
		level = DutyLevels // field value 0 encodes full 32/32 in this model
	}
	return enabled, level
}

// DutyCycle returns the effective fraction of nominal frequency encoded by
// a clock-modulation register value: 1.0 when modulation is disabled,
// level/DutyLevels when enabled.
func DutyCycle(v uint64) float64 {
	enabled, level := DecodeClockModulation(v)
	if !enabled {
		return 1
	}
	return float64(level) / DutyLevels
}

// SetCoreDuty writes a core's clock-modulation register. Passing
// DutyLevels (or disabling) restores full speed.
func (f *File) SetCoreDuty(core int, enable bool, level int) error {
	return f.WriteCore(core, IA32ClockModulation, EncodeClockModulation(enable, level))
}

// CoreDuty reads a core's effective duty cycle as a fraction of nominal
// frequency.
func (f *File) CoreDuty(core int) (float64, error) {
	v, err := f.ReadCore(core, IA32ClockModulation)
	if err != nil {
		return 0, err
	}
	return DutyCycle(v), nil
}

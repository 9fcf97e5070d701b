// Package msr emulates the subset of Intel Sandybridge model-specific
// registers that the paper's measurement and throttling stack touches:
//
//   - MSR_PKG_ENERGY_STATUS (0x611): per-package 32-bit energy counter in
//     15.3 µJ units, wrapping modulo 2^32 (paper §II-A).
//   - IA32_THERM_STATUS (0x19C): per-core thermal status with the digital
//     temperature readout relative to TjMax (paper §II-B reads the most
//     recent chip temperature from it).
//   - IA32_CLOCK_MODULATION (0x19A): per-core duty-cycle control. On real
//     Sandybridge the encoding is 1/16 steps with an extended half-step
//     bit; the paper reports an effective minimum of 1/32 of nominal
//     frequency, so this emulation uses a 5-bit level field in 1/32 steps.
//   - IA32_TIME_STAMP_COUNTER (0x10): per-core cycle counter.
//   - MSR_RAPL_POWER_UNIT (0x606): unit register; the energy-status unit
//     is fixed at units.RAPLUnit.
//
// A File holds the registers of one node (all sockets, all cores) and is
// safe for concurrent use. The simulated machine writes it; the RAPL
// reader and RCR daemon read it, exercising the same wrap-handling code
// paths that real hardware requires.
package msr

import (
	"fmt"
	"sync"

	"repro/internal/units"
)

// Register addresses, matching the Intel SDM numbering so that code reads
// like its hardware counterpart.
const (
	IA32TimeStampCounter uint32 = 0x10
	IA32ClockModulation  uint32 = 0x19A
	IA32ThermStatus      uint32 = 0x19C
	MSRRAPLPowerUnit     uint32 = 0x606
	MSRPkgEnergyStatus   uint32 = 0x611
)

// TjMax is the junction temperature against which IA32_THERM_STATUS
// reports its digital readout. 98 °C is typical for Xeon E5-2600 parts.
const TjMax units.Celsius = 98

// DutyLevels is the number of duty-cycle steps: level L runs the core at
// L/DutyLevels of nominal frequency. Level 0 is reserved and treated as 1.
const DutyLevels = 32

// Clock-modulation register layout (see package comment for the 1/32
// divergence from stock Sandybridge).
const (
	clockModEnableBit uint64 = 1 << 5
	clockModLevelMask uint64 = 0x1F
	thermReadoutShift        = 16
	thermReadoutMask  uint64 = 0x7F << thermReadoutShift
	thermReadingValid uint64 = 1 << 31
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
// accumulation and per-completion cycle flush are an indexed add.
type pkgRegs struct {
	raplPowerUnit   uint64
	pkgEnergyStatus uint64
	// energyRem is the sub-count energy remainder, carried so that
	// quantization to 15.3 µJ units never loses energy across calls.
	energyRem float64
}

type coreRegs struct {
	timeStampCounter uint64
	clockModulation  uint64
	thermStatus      uint64
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
	switch addr {
	case IA32TimeStampCounter:
		return &c.timeStampCounter
	case IA32ClockModulation:
		return &c.clockModulation
	case IA32ThermStatus:
		return &c.thermStatus
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
	for i := range f.cores {
		f.cores[i].thermStatus = EncodeThermStatus(40) // cool at power-on
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

// AddPackageEnergy accumulates energy into a socket's
// MSR_PKG_ENERGY_STATUS counter, quantized to units.RAPLUnit, carrying the
// sub-unit remainder so no energy is ever lost, and wrapping modulo 2^32
// exactly like the hardware counter. Negative energy is ignored.
func (f *File) AddPackageEnergy(socket int, e units.Joules) error {
	if socket < 0 || socket >= len(f.pkgs) {
		return &RangeError{Kind: "socket", Index: socket, Limit: len(f.pkgs)}
	}
	if e <= 0 {
		return nil
	}
	p := &f.pkgs[socket]
	f.mu.Lock()
	p.energyRem += float64(e) / float64(units.RAPLUnit)
	whole := uint64(p.energyRem)
	p.energyRem -= float64(whole)
	p.pkgEnergyStatus = (p.pkgEnergyStatus + whole) % units.RAPLCounterMod
	f.mu.Unlock()
	return nil
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

// AddCoreCycles advances a core's time-stamp counter.
func (f *File) AddCoreCycles(core int, cycles float64) error {
	if core < 0 || core >= len(f.cores) {
		return &RangeError{Kind: "core", Index: core, Limit: len(f.cores)}
	}
	if cycles <= 0 {
		return nil
	}
	f.mu.Lock()
	f.cores[core].timeStampCounter += uint64(cycles)
	f.mu.Unlock()
	return nil
}

// EncodeThermStatus builds an IA32_THERM_STATUS value whose digital
// readout encodes temperature t (clamped to [TjMax-127, TjMax]).
func EncodeThermStatus(t units.Celsius) uint64 {
	below := float64(TjMax - t)
	if below < 0 {
		below = 0
	}
	if below > 127 {
		below = 127
	}
	return thermReadingValid | (uint64(below) << thermReadoutShift)
}

// DecodeThermStatus extracts the temperature from an IA32_THERM_STATUS
// value. The second result reports whether the reading is valid.
func DecodeThermStatus(v uint64) (units.Celsius, bool) {
	below := (v & thermReadoutMask) >> thermReadoutShift
	return TjMax - units.Celsius(below), v&thermReadingValid != 0
}

// SetCoreTemperature updates a core's thermal status register.
func (f *File) SetCoreTemperature(core int, t units.Celsius) error {
	return f.WriteCore(core, IA32ThermStatus, EncodeThermStatus(t))
}

// CoreTemperature reads a core's thermal status register and decodes it.
func (f *File) CoreTemperature(core int) (units.Celsius, error) {
	v, err := f.ReadCore(core, IA32ThermStatus)
	if err != nil {
		return 0, err
	}
	t, ok := DecodeThermStatus(v)
	if !ok {
		return 0, fmt.Errorf("msr: core %d thermal reading not valid", core)
	}
	return t, nil
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

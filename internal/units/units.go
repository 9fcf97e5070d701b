// Package units defines the physical quantities used throughout the
// simulator and the measurement stack: energy, power, frequency,
// temperature and memory bandwidth, together with conversion helpers and
// the RAPL fixed-point energy unit used by MSR_PKG_ENERGY_STATUS.
//
// All quantities are float64 wrappers. Arithmetic between them is done by
// explicit conversion helpers (PowerOver, EnergyOver, ...) so that unit
// errors surface at compile time rather than as silently wrong numbers.
//
// Virtual time in the simulator is represented by time.Duration: one
// virtual nanosecond is one time.Duration tick. No wall-clock meaning is
// attached anywhere in this package.
package units

import (
	"fmt"
	"math"
	"time"
)

// Joules is an amount of energy.
type Joules float64

// Watts is a rate of energy use.
type Watts float64

// Hertz is a frequency.
type Hertz float64

// Celsius is a temperature.
type Celsius float64

// BytesPerSecond is a memory bandwidth.
type BytesPerSecond float64

// Frequency constants.
const (
	KHz Hertz = 1e3
	MHz Hertz = 1e6
	GHz Hertz = 1e9
)

// RAPLUnit is the energy represented by one count of the Sandybridge
// MSR_PKG_ENERGY_STATUS counter: 15.3 microjoules (paper §II-A).
const RAPLUnit Joules = 15.3e-6

// RAPLCounterBits is the width of MSR_PKG_ENERGY_STATUS. The counter wraps
// modulo 2^RAPLCounterBits; at ~150 W a wrap occurs every few minutes,
// which is why measurement tools must track wraparounds (paper §II-A).
const RAPLCounterBits = 32

// RAPLCounterMod is the wrap modulus of the RAPL energy counter.
const RAPLCounterMod uint64 = 1 << RAPLCounterBits

// PowerOver returns the average power of spending e over duration d.
// It returns 0 for non-positive durations.
func PowerOver(e Joules, d time.Duration) Watts {
	if d <= 0 {
		return 0
	}
	return Watts(float64(e) / d.Seconds())
}

// EnergyOver returns the energy used by drawing w for duration d.
func EnergyOver(w Watts, d time.Duration) Joules {
	if d <= 0 {
		return 0
	}
	return Joules(float64(w) * d.Seconds())
}

// CyclesOver returns the number of clock cycles elapsed at frequency h over
// duration d.
func CyclesOver(h Hertz, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(h) * d.Seconds()
}

// DurationOfCycles returns the time needed for n cycles at frequency h.
// It returns 0 for non-positive frequencies.
func DurationOfCycles(n float64, h Hertz) time.Duration {
	if h <= 0 || n <= 0 {
		return 0
	}
	return time.Duration(n / float64(h) * float64(time.Second))
}

// RAPLCounts quantizes an energy to whole RAPL counter increments,
// truncating toward zero. Negative energies quantize to zero.
func RAPLCounts(e Joules) uint64 {
	if e <= 0 {
		return 0
	}
	return uint64(float64(e) / float64(RAPLUnit))
}

// FromRAPLCounts converts a raw count delta back to energy.
func FromRAPLCounts(c uint64) Joules {
	return Joules(float64(c) * float64(RAPLUnit))
}

// RAPLDelta returns the energy represented by advancing a 32-bit RAPL
// counter from old to new, accounting for at most one wraparound. Callers
// must sample often enough that at most one wrap can occur between reads
// (paper §II-A: "the measurement tools monitor the number of wraps").
func RAPLDelta(old, new uint32) Joules {
	return FromRAPLCounts(RAPLCountDelta(old, new))
}

// RAPLCountDelta is RAPLDelta in raw counts, for callers that scale by
// their own unit.
func RAPLCountDelta(old, new uint32) uint64 {
	if new < old {
		return RAPLCounterMod - uint64(old) + uint64(new)
	}
	return uint64(new - old)
}

// String formats the energy with an adaptive unit (µJ, mJ, J, kJ).
func (j Joules) String() string {
	v := float64(j)
	a := math.Abs(v)
	switch {
	case a == 0:
		return "0 J"
	case a < 1e-3:
		return fmt.Sprintf("%.1f µJ", v*1e6)
	case a < 1:
		return fmt.Sprintf("%.2f mJ", v*1e3)
	case a < 1e4:
		return fmt.Sprintf("%.1f J", v)
	default:
		return fmt.Sprintf("%.2f kJ", v*1e-3)
	}
}

// String formats the power in watts with one decimal.
func (w Watts) String() string { return fmt.Sprintf("%.1f W", float64(w)) }

// String formats the frequency with an adaptive unit (Hz, kHz, MHz, GHz).
func (h Hertz) String() string {
	v := float64(h)
	a := math.Abs(v)
	switch {
	case a >= 1e9:
		return fmt.Sprintf("%.2f GHz", v/1e9)
	case a >= 1e6:
		return fmt.Sprintf("%.1f MHz", v/1e6)
	case a >= 1e3:
		return fmt.Sprintf("%.1f kHz", v/1e3)
	default:
		return fmt.Sprintf("%.0f Hz", v)
	}
}

// String formats the temperature in degrees Celsius.
func (c Celsius) String() string { return fmt.Sprintf("%.1f °C", float64(c)) }

// String formats the bandwidth with an adaptive unit (B/s through GB/s).
func (b BytesPerSecond) String() string {
	v := float64(b)
	a := math.Abs(v)
	switch {
	case a >= 1e9:
		return fmt.Sprintf("%.2f GB/s", v/1e9)
	case a >= 1e6:
		return fmt.Sprintf("%.1f MB/s", v/1e6)
	case a >= 1e3:
		return fmt.Sprintf("%.1f kB/s", v/1e3)
	default:
		return fmt.Sprintf("%.0f B/s", v)
	}
}

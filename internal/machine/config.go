// Package machine simulates the two-socket Intel Sandybridge node the
// paper measures: cores with per-core duty-cycle (clock modulation)
// control, a shared memory subsystem with an outstanding-references
// bandwidth model, an analytic power model feeding RAPL-style energy
// counters, and a first-order thermal model with temperature-dependent
// leakage.
//
// # Execution model
//
// Time is virtual. Worker goroutines enroll on simulated cores and charge
// work to them (Execute, Atomic, SpinUntil, IdleUntil); the charging call
// blocks while one stepper at a time — the owner whose call blocked the
// last running core, or else the engine goroutine — advances virtual time
// in variable-size steps. A step never crosses a work-item completion or a
// ticker deadline, so piecewise-constant rate assumptions are exact. Time
// only advances when every enrolled core is parked in one of the
// blocking calls, and the owners an instant wakes — every completed item,
// true condition and due deadline — are resumed one at a time in ascending
// core id, the next only after the previous has blocked again. So the host
// code of a node is one sequential program ordered by virtual state, and
// the simulation is independent of the host's core count, scheduler and
// collector: a run is a pure function of its inputs. Enroll itself orders
// nothing (a new core runs at once); owners that share host state Yield
// first, and a goroutine that owns no core changes such state through
// WhenQuiescent. docs/engine.md §Execution model has the rule in full.
//
// Host-side execution between charging calls costs zero virtual time by
// design: the simulated machine accounts only for modeled work.
package machine

import (
	"fmt"
	"time"

	"repro/internal/units"
)

// MemParams models the shared memory subsystem of one socket, after the
// outstanding-references model of Mandel, Fowler and Porterfield
// (ISPASS 2010, paper reference [10]): bandwidth grows with concurrent
// references up to a knee, beyond which bandwidth plateaus and latency
// worsens.
type MemParams struct {
	// BandwidthPerSocket is the plateau bandwidth of one socket.
	BandwidthPerSocket units.BytesPerSecond
	// KneeRefs is the number of outstanding references at which the
	// socket's bandwidth saturates. One reference stream is worth
	// BandwidthPerSocket/KneeRefs bytes per second.
	KneeRefs int
	// MaxRefsPerCore bounds a single core's outstanding references
	// (line-fill buffers), capping per-core bandwidth.
	MaxRefsPerCore int
	// OversubPenalty is the fractional capacity degradation per unit of
	// oversubscription beyond the knee: effective capacity is
	// C / (1 + OversubPenalty × (refs/knee − 1)) when refs > knee.
	OversubPenalty float64
}

// PerRefBandwidth returns the bandwidth carried by one reference stream.
func (m MemParams) PerRefBandwidth() units.BytesPerSecond {
	if m.KneeRefs <= 0 {
		return m.BandwidthPerSocket
	}
	return m.BandwidthPerSocket / units.BytesPerSecond(m.KneeRefs)
}

// MaxCoreBandwidth returns the bandwidth cap of a single core.
func (m MemParams) MaxCoreBandwidth() units.BytesPerSecond {
	return m.PerRefBandwidth() * units.BytesPerSecond(m.MaxRefsPerCore)
}

// PowerParams is the analytic power model of one socket. All per-core
// figures are at nominal frequency and the leakage reference temperature;
// the thermal model scales total socket power with temperature.
//
// Calibration (DESIGN.md §5): 16 compute-bound threads ≈ 150 W total,
// memory-stalled cores pull an app like mergesort down to ~60 W, a
// duty-cycle-throttled spinner saves ≈3 W versus an active core, and
// OS-parked threads save a further ≈2.5 W each versus throttled spinners.
type PowerParams struct {
	// UncoreBase is the always-on per-socket power (LLC, ring, memory
	// controller at idle, fixed leakage).
	UncoreBase units.Watts
	// CoreActive is the power of a core retiring instructions at full
	// duty cycle.
	CoreActive units.Watts
	// CoreStall is the power of a core stalled on memory with no
	// compute overlap.
	CoreStall units.Watts
	// CoreSpin is the power of a core spinning at full duty cycle.
	CoreSpin units.Watts
	// CoreSpinFloor is the asymptotic spin power as duty cycle goes to
	// zero; spin power interpolates linearly in duty between the floor
	// and CoreSpin.
	CoreSpinFloor units.Watts
	// CoreParked is the power of an enrolled but OS-parked (deep-idle,
	// monitor/mwait) core.
	CoreParked units.Watts
	// CoreUnowned is the power of a core no worker has enrolled on.
	CoreUnowned units.Watts
	// BandwidthMax is the additional uncore power of one socket at full
	// memory-bandwidth utilization; it scales linearly with utilization.
	BandwidthMax units.Watts
}

// ThermalParams is a first-order (single time constant) thermal model per
// socket with temperature-dependent leakage. It reproduces the paper's
// §II-C footnote 2 observation that an initially cold chip uses ~3% less
// energy than a warm one for the same run.
type ThermalParams struct {
	// Ambient is the inlet/heatsink reference temperature.
	Ambient units.Celsius
	// Resistance is the steady-state temperature rise per watt of socket
	// power, in °C/W.
	Resistance float64
	// TimeConstant is the exponential time constant of the die+heatsink.
	TimeConstant time.Duration
	// LeakageCoef is the fractional increase in socket power per °C
	// above LeakageRef.
	LeakageCoef float64
	// LeakageRef is the temperature at which PowerParams are calibrated.
	LeakageRef units.Celsius
}

// Config describes a simulated node.
type Config struct {
	Sockets        int
	CoresPerSocket int
	// BaseFreq is the nominal core clock. No core runs above it: the
	// paper's BIOS disables opportunistic boost (§II).
	BaseFreq units.Hertz
	// MaxStep caps one engine step of virtual time; spin phases and
	// long homogeneous work advance in at most MaxStep increments
	// between condition polls.
	MaxStep time.Duration
	// VirtualTimeLimit aborts the simulation if virtual time exceeds it,
	// catching scheduling deadlocks in tests. Zero means no limit.
	VirtualTimeLimit time.Duration

	Mem     MemParams
	Power   PowerParams
	Thermal ThermalParams
}

// Cores returns the total core count of the node.
func (c Config) Cores() int { return c.Sockets * c.CoresPerSocket }

// SocketOf returns the socket that owns a node-wide core index.
func (c Config) SocketOf(core int) int { return core / c.CoresPerSocket }

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	switch {
	case c.Sockets <= 0:
		return fmt.Errorf("machine: Sockets = %d, must be positive", c.Sockets)
	case c.CoresPerSocket <= 0:
		return fmt.Errorf("machine: CoresPerSocket = %d, must be positive", c.CoresPerSocket)
	case c.BaseFreq <= 0:
		return fmt.Errorf("machine: BaseFreq = %v, must be positive", c.BaseFreq)
	case c.MaxStep <= 0:
		return fmt.Errorf("machine: MaxStep = %v, must be positive", c.MaxStep)
	case c.Mem.BandwidthPerSocket <= 0:
		return fmt.Errorf("machine: Mem.BandwidthPerSocket = %v, must be positive", c.Mem.BandwidthPerSocket)
	case c.Mem.KneeRefs <= 0:
		return fmt.Errorf("machine: Mem.KneeRefs = %d, must be positive", c.Mem.KneeRefs)
	case c.Mem.MaxRefsPerCore <= 0:
		return fmt.Errorf("machine: Mem.MaxRefsPerCore = %d, must be positive", c.Mem.MaxRefsPerCore)
	case c.Mem.OversubPenalty < 0:
		return fmt.Errorf("machine: Mem.OversubPenalty = %g, must be non-negative", c.Mem.OversubPenalty)
	case c.Thermal.TimeConstant <= 0:
		return fmt.Errorf("machine: Thermal.TimeConstant = %v, must be positive", c.Thermal.TimeConstant)
	case c.Thermal.Resistance < 0:
		return fmt.Errorf("machine: Thermal.Resistance = %g, must be non-negative", c.Thermal.Resistance)
	}
	return nil
}

// M620 returns the configuration of the paper's test platform: a Dell
// M620 blade with two Xeon E5-2680 packages (8 cores each) at 2.7 GHz
// with opportunistic boost disabled, calibrated per DESIGN.md §5.
func M620() Config {
	return Config{
		Sockets:        2,
		CoresPerSocket: 8,
		BaseFreq:       2.7 * units.GHz,
		MaxStep:        time.Millisecond,
		Mem: MemParams{
			// ~2/3 of the E5-2680's theoretical 51.2 GB/s per socket,
			// a realistic achievable stream bandwidth.
			BandwidthPerSocket: 34e9,
			KneeRefs:           28,
			MaxRefsPerCore:     10,
			OversubPenalty:     0.08,
		},
		Power: PowerParams{
			UncoreBase:    17.5,
			CoreActive:    7.2,
			CoreStall:     1.6,
			CoreSpin:      7.0,
			CoreSpinFloor: 3.7,
			CoreParked:    1.4,
			CoreUnowned:   1.1,
			BandwidthMax:  6.0,
		},
		Thermal: ThermalParams{
			Ambient:      25,
			Resistance:   0.60,
			TimeConstant: 40 * time.Second,
			LeakageCoef:  0.0011,
			LeakageRef:   40,
		},
	}
}

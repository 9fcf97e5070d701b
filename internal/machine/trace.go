package machine

import "time"

// SocketStep is one socket's contribution to a StepRecord. All float
// fields carry the engine's exact values (no rounding), so two engines
// producing the same physics agree bit-for-bit under math.Float64bits.
type SocketStep struct {
	// Energy is the exact cumulative energy in joules after the step.
	Energy float64
	// Power is the socket power integrated over the step, in watts.
	Power float64
	// Temperature is the die temperature after the step, in °C.
	Temperature float64
	// Refs is the outstanding-reference count of the step's demand set.
	Refs float64
	// Util is the fraction of plateau bandwidth granted this step.
	Util float64
	// Bandwidth is the total granted bandwidth (bytes/s) of cores still
	// busy after the step, matching Snapshot.Bandwidth.
	Bandwidth float64
	// Boost is the Turbo frequency multiplier applied this step.
	Boost float64
	// FreqScale is the DVFS scale applied this step.
	FreqScale float64
	// RAPLCounter is the raw MSR_PKG_ENERGY_STATUS value after the step
	// (32-bit, 15.3 µJ units, wrapping).
	RAPLCounter uint32
}

// StepRecord is the full post-step state of one engine quantum: the new
// virtual time, the step length, and every socket's integrated physics.
// The differential oracle (internal/refmodel) replays a scenario on a
// naive reference engine and asserts records match bit-for-bit.
type StepRecord struct {
	Now     time.Duration
	Dt      time.Duration
	Sockets []SocketStep
}

// StepHook observes every engine step. It runs on the stepper — the
// goroutine of the owner that blocked last, or the engine goroutine — with
// the machine lock held, one step at a time and never beside an owner's
// host code: it must be fast, must not block, and must not call Machine or
// CoreCtx methods. It owns the record it receives.
type StepHook func(StepRecord)

// SetStepHook installs (or, with nil, removes) the machine's step hook.
// Install it before enrolling workers: the hook is read by the engine
// without further synchronization beyond the machine lock, and steps
// taken before installation are simply unobserved. The steady-state
// engine allocates only while a hook is installed (one record per step).
func (m *Machine) SetStepHook(h StepHook) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stepHook = h
}

// stepRecordLocked assembles the post-step record handed to the step
// hook. Called at the end of advanceLocked, after updateSnapLocked, so
// lastSnap already reflects the completed step.
func (m *Machine) stepRecordLocked(dt time.Duration) StepRecord {
	rec := StepRecord{Now: m.now, Dt: dt, Sockets: make([]SocketStep, m.cfg.Sockets)}
	for sock := range rec.Sockets {
		ls := m.lastSnap.Sockets[sock]
		rec.Sockets[sock] = SocketStep{
			Energy:      m.energy[sock],
			Power:       float64(ls.Power),
			Temperature: float64(ls.Temperature),
			Refs:        ls.OutstandingRefs,
			Util:        ls.BandwidthUtilization,
			Bandwidth:   float64(ls.Bandwidth),
			Boost:       m.stepBoost[sock],
			FreqScale:   m.freqScale[sock],
			RAPLCounter: m.msrFile.PackageEnergyCounter(sock),
		}
	}
	return rec
}

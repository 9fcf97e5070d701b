package machine

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Dynamic voltage and frequency scaling. The paper contrasts its per-core
// duty-cycle mechanism with DVFS (§IV): DVFS "affects all cores on a
// processor" and "requires significant OS and hardware overhead to adjust
// the voltage". This file models the mechanism so the two can be compared
// head-to-head (see experiments.MechanismAblation):
//
//   - the scale applies to a whole socket (every core's clock);
//   - rate scales linearly with frequency;
//   - the dynamic (above-stall) part of core power scales with f·V²,
//     with voltage following frequency down to a floor:
//     V(f) = vFloor + (1−vFloor)·f.
//
// Requests are written lock-free (so the MAESTRO daemon can issue them
// from a machine ticker) and take effect at the next engine step, with
// the paper's "tens of thousands of cycles" transition latency
// represented by the step granularity.

// MinFrequencyScale is the lowest supported DVFS point (matching a
// 1.2 GHz floor on a 2.7 GHz part).
const MinFrequencyScale = 0.45

// vFloor is the voltage fraction retained at zero frequency in the
// V(f) = vFloor + (1−vFloor)·f model.
const vFloor = 0.6

// RequestFrequencyScale asks for a socket's clock to run at scale × the
// base frequency (clamped to [MinFrequencyScale, 1]). Safe to call from
// any goroutine, including machine tickers (it takes no locks): the
// engine applies the request at its next step, which is also where the
// real mechanism's transition latency would land.
func (m *Machine) RequestFrequencyScale(socket int, scale float64) error {
	if socket < 0 || socket >= m.cfg.Sockets {
		return fmt.Errorf("machine: socket %d out of range [0,%d)", socket, m.cfg.Sockets)
	}
	m.freqScaleReq[socket].Store(math.Float64bits(ClampFrequencyScale(scale)))
	return nil
}

// ClampFrequencyScale clamps a requested DVFS scale to
// [MinFrequencyScale, 1], as RequestFrequencyScale applies it.
func ClampFrequencyScale(scale float64) float64 {
	if scale < MinFrequencyScale {
		return MinFrequencyScale
	}
	if scale > 1 {
		return 1
	}
	return scale
}

// applyFrequencyRequestsLocked moves pending DVFS requests into effect;
// called by the engine before planning each step.
func (m *Machine) applyFrequencyRequestsLocked() {
	for s := range m.freqScale {
		if bits := m.freqScaleReq[s].Load(); bits != 0 && bits != math.Float64bits(m.freqScale[s]) {
			m.freqScale[s] = math.Float64frombits(bits)
			m.markPlanLocked(s)
		}
	}
}

// DVFSPowerFactor is the multiplier on a core's dynamic power at
// frequency scale fs: f · V(f)².
func DVFSPowerFactor(fs float64) float64 {
	v := vFloor + (1-vFloor)*fs
	return fs * v * v
}

// initDVFS sets up the per-socket scale state.
func (m *Machine) initDVFS() {
	m.freqScale = make([]float64, m.cfg.Sockets)
	m.freqScaleReq = make([]atomic.Uint64, m.cfg.Sockets)
	for s := range m.freqScale {
		m.freqScale[s] = 1
		m.freqScaleReq[s].Store(math.Float64bits(1))
	}
}

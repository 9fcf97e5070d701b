package machine

import (
	"math"
	"time"

	"repro/internal/units"
)

// Step advances a socket temperature by dt under constant power P, using
// the exact solution of the first-order model
//
//	τ dT/dt = T_ss − T,  T_ss = Ambient + Resistance × P.
//
// The engine calls the two halves, decay and relax, itself, so that it
// can keep decay across steps of equal length.
func (tp ThermalParams) Step(T units.Celsius, P units.Watts, dt time.Duration) units.Celsius {
	if dt <= 0 || tp.TimeConstant <= 0 {
		return T
	}
	return tp.relax(T, P, tp.decay(dt))
}

// decay returns exp(−dt/τ), the fraction of a temperature's distance to
// steady state that survives dt. It depends on nothing but dt.
func (tp ThermalParams) decay(dt time.Duration) float64 {
	return math.Exp(-dt.Seconds() / tp.TimeConstant.Seconds())
}

// relax moves T towards the steady state of power P, keeping the
// fraction k = decay(dt) of its distance.
func (tp ThermalParams) relax(T units.Celsius, P units.Watts, k float64) units.Celsius {
	tss := tp.SteadyState(P)
	return tss + (T-tss)*units.Celsius(k)
}

// SteadyState returns the temperature the socket converges to at constant
// power P.
func (tp ThermalParams) SteadyState(P units.Watts) units.Celsius {
	return tp.Ambient + units.Celsius(tp.Resistance*float64(P))
}

// LeakageFactorAt returns the multiplicative power correction at
// temperature T: 1 at LeakageRef, growing by LeakageCoef per °C above it.
// It never returns less than a floor of 0.9, keeping the model sane for
// temperatures far below the reference.
func (tp ThermalParams) LeakageFactorAt(T units.Celsius) float64 {
	f := 1 + tp.LeakageCoef*float64(T-tp.LeakageRef)
	if f < 0.9 {
		return 0.9
	}
	return f
}

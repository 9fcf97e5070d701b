package refmodel

import (
	"fmt"
	"math"

	"repro/internal/machine"
)

// Compare checks two trajectories for bit-identity: every step record,
// every ticker fire, and the final architectural state. Floats are
// compared by their IEEE-754 bit patterns, so even a last-ulp divergence
// (a reordered accumulation, a fused multiply) is an error. got is the
// optimized engine's trajectory, want the reference engine's.
func Compare(got, want *Result) error {
	if len(got.Steps) != len(want.Steps) {
		return fmt.Errorf("step count: engine took %d steps, reference %d", len(got.Steps), len(want.Steps))
	}
	for k := range got.Steps {
		if err := compareStep(&got.Steps[k], &want.Steps[k]); err != nil {
			return fmt.Errorf("step %d: %w", k, err)
		}
	}
	if len(got.Tickers) != len(want.Tickers) {
		return fmt.Errorf("ticker slots: engine %d, reference %d", len(got.Tickers), len(want.Tickers))
	}
	for slot := range got.Tickers {
		g, w := got.Tickers[slot], want.Tickers[slot]
		if len(g) != len(w) {
			return fmt.Errorf("ticker slot %d: engine fired %d times, reference %d", slot, len(g), len(w))
		}
		for k := range g {
			if g[k].Now != w[k].Now {
				return fmt.Errorf("ticker slot %d fire %d: Now engine=%v reference=%v", slot, k, g[k].Now, w[k].Now)
			}
			if err := compareSockets(g[k].Sockets, w[k].Sockets); err != nil {
				return fmt.Errorf("ticker slot %d fire %d: %w", slot, k, err)
			}
		}
	}
	if err := compareFloats("final energy", got.Energy, want.Energy); err != nil {
		return err
	}
	if len(got.Counters) != len(want.Counters) {
		return fmt.Errorf("final counters: engine has %d sockets, reference %d", len(got.Counters), len(want.Counters))
	}
	for s := range got.Counters {
		if got.Counters[s] != want.Counters[s] {
			return fmt.Errorf("final RAPL counter socket %d: engine=%d reference=%d", s, got.Counters[s], want.Counters[s])
		}
	}
	if err := compareU64("final TSC", got.TSC, want.TSC); err != nil {
		return err
	}
	if err := compareU64("final therm status", got.Therm, want.Therm); err != nil {
		return err
	}
	return nil
}

func compareStep(g, w *machine.StepRecord) error {
	if g.Now != w.Now {
		return fmt.Errorf("Now engine=%v reference=%v", g.Now, w.Now)
	}
	if g.Dt != w.Dt {
		return fmt.Errorf("Dt engine=%v reference=%v", g.Dt, w.Dt)
	}
	return compareSockets(g.Sockets, w.Sockets)
}

func compareSockets(g, w []machine.SocketStep) error {
	if len(g) != len(w) {
		return fmt.Errorf("socket count engine=%d reference=%d", len(g), len(w))
	}
	for s := range g {
		fields := []struct {
			name   string
			gv, wv float64
		}{
			{"Energy", g[s].Energy, w[s].Energy},
			{"Power", g[s].Power, w[s].Power},
			{"Temperature", g[s].Temperature, w[s].Temperature},
			{"Refs", g[s].Refs, w[s].Refs},
			{"Util", g[s].Util, w[s].Util},
			{"Bandwidth", g[s].Bandwidth, w[s].Bandwidth},
			{"Boost", g[s].Boost, w[s].Boost},
			{"FreqScale", g[s].FreqScale, w[s].FreqScale},
		}
		for _, f := range fields {
			if math.Float64bits(f.gv) != math.Float64bits(f.wv) {
				return fmt.Errorf("socket %d %s: engine=%v (%#x) reference=%v (%#x)",
					s, f.name, f.gv, math.Float64bits(f.gv), f.wv, math.Float64bits(f.wv))
			}
		}
		if g[s].RAPLCounter != w[s].RAPLCounter {
			return fmt.Errorf("socket %d RAPLCounter: engine=%d reference=%d", s, g[s].RAPLCounter, w[s].RAPLCounter)
		}
	}
	return nil
}

func compareFloats(what string, g, w []float64) error {
	if len(g) != len(w) {
		return fmt.Errorf("%s: engine has %d entries, reference %d", what, len(g), len(w))
	}
	for i := range g {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
			return fmt.Errorf("%s[%d]: engine=%v reference=%v", what, i, g[i], w[i])
		}
	}
	return nil
}

func compareU64(what string, g, w []uint64) error {
	if len(g) != len(w) {
		return fmt.Errorf("%s: engine has %d entries, reference %d", what, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			return fmt.Errorf("%s[%d]: engine=%#x reference=%#x", what, i, g[i], w[i])
		}
	}
	return nil
}

// Differential runs one scenario through both engines, audits both
// trajectories against the model-independent invariants, and compares
// them bit-for-bit. This is the whole oracle in one call; the fuzz
// target and the seeded differential tests are thin wrappers around it.
func Differential(sc Scenario) error {
	_, err := DifferentialTrajectory(sc)
	return err
}

// DifferentialTrajectory is Differential that also returns the machine
// engine's trajectory, for callers that go on to measure what the
// scenario exercised.
func DifferentialTrajectory(sc Scenario) (*Result, error) {
	got, err := PlayMachine(sc)
	if err != nil {
		return nil, fmt.Errorf("machine engine: %w", err)
	}
	want, err := Run(sc)
	if err != nil {
		return nil, fmt.Errorf("reference engine: %w", err)
	}
	if err := Audit(sc, got); err != nil {
		return nil, fmt.Errorf("machine engine audit: %w", err)
	}
	if err := Audit(sc, want); err != nil {
		return nil, fmt.Errorf("reference engine audit: %w", err)
	}
	return got, Compare(got, want)
}

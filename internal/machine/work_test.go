package machine

import "testing"

// The point formulas below are shared by the engine and the reference
// model, so the differential oracle cannot see a change to them; these
// hand-computed values can. Every input is chosen so the expected value
// is exact in binary floating point.

func TestWorkRates(t *testing.T) {
	mixed := Work{Ops: 100, Bytes: 400} // 4 bytes per op
	cases := []struct {
		name               string
		w                  Work
		cycleRate, grant   float64
		ops, bytes, afWant float64
	}{
		// The grant carries 2e9 ops/s, more than the clock's 1e9.
		{"mixed cycle-bound", mixed, 1e9, 8e9, 1e9, 4e9, 1},
		// The grant carries 5e8 ops/s, half the clock.
		{"mixed grant-bound", mixed, 1e9, 2e9, 5e8, 2e9, 0.5},
		{"pure compute", Work{Ops: 100}, 1e9, 3e9, 1e9, 0, 1},
		{"pure stream", Work{Bytes: 100}, 1e9, 3e9, 0, 3e9, 0},
		{"stopped clock", Work{Ops: 100}, 0, 3e9, 0, 0, 0},
	}
	for _, tc := range cases {
		ops, bytes, af := tc.w.Rates(tc.cycleRate, tc.grant)
		if ops != tc.ops || bytes != tc.bytes || af != tc.afWant {
			t.Errorf("%s: Rates = (%g, %g, %g), want (%g, %g, %g)",
				tc.name, ops, bytes, af, tc.ops, tc.bytes, tc.afWant)
		}
	}
}

func TestAtomicRate(t *testing.T) {
	cases := []struct {
		name                               string
		cycleRate, cost, pingPong, k, want float64
	}{
		// One contender: one op per 100 cycles.
		{"k=1", 1.2e9, 100, 0.5, 1, 1.2e7},
		// Three contenders: each op costs 100 × (1 + 0.5×2) = 200 cycles
		// and the line serves the three in turn: 1.2e9 / 600.
		{"k=3 ping-pong", 1.2e9, 100, 0.5, 3, 2e6},
		{"k=3 no ping-pong", 1.2e9, 100, 0, 3, 4e6},
	}
	for _, tc := range cases {
		if got := AtomicRate(tc.cycleRate, tc.cost, tc.pingPong, tc.k); got != tc.want {
			t.Errorf("%s: AtomicRate = %g, want %g", tc.name, got, tc.want)
		}
	}
}

func TestWorkPowerActivity(t *testing.T) {
	cases := []struct {
		name             string
		w                Work
		activeFrac, want float64
	}{
		// 0.5 × 0.5 active + 0.5 × 0.25 overlap credit.
		{"half active", Work{Activity: 0.5, Overlap: 0.25}, 0.5, 0.375},
		// Zero Activity means 1: 0.25 × 1 + 0.75 × 0.5.
		{"zero activity reads as 1", Work{Overlap: 0.5}, 0.25, 0.625},
		{"activity above 1 reads as 1", Work{Activity: 2}, 1, 1},
		{"all stalled", Work{Activity: 0.5, Overlap: 0.75}, 0, 0.75},
	}
	for _, tc := range cases {
		if got := tc.w.PowerActivity(tc.activeFrac); got != tc.want {
			t.Errorf("%s: PowerActivity = %g, want %g", tc.name, got, tc.want)
		}
	}
}

func TestWorkBandwidthDemand(t *testing.T) {
	// 40 GB/s over a knee of 20 references is 2 GB/s per reference; ten
	// references per core cap a core at 20 GB/s.
	mem := MemParams{BandwidthPerSocket: 40e9, KneeRefs: 20, MaxRefsPerCore: 10}
	cases := []struct {
		name            string
		w               Work
		cycleRate, want float64
	}{
		{"4 bytes per op", Work{Ops: 100, Bytes: 400}, 1e9, 4e9},
		{"half a byte per op", Work{Ops: 100, Bytes: 50}, 1e9, 5e8},
		{"pure stream asks the per-core cap", Work{Bytes: 100}, 1e9, 20e9},
	}
	for _, tc := range cases {
		if got := tc.w.BandwidthDemand(tc.cycleRate, mem); got != tc.want {
			t.Errorf("%s: BandwidthDemand = %g, want %g", tc.name, got, tc.want)
		}
	}
}

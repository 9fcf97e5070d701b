package rapl

import (
	"math"
	"testing"

	"repro/internal/msr"
	"repro/internal/units"
)

// TestMSRReaderWrapBoundaries drives the raw MSR_PKG_ENERGY_STATUS
// register through exact 32-bit wrap boundaries and checks the reader's
// wrap-corrected accumulation count by count, and the same sums of
// WrapDelta. Counter values are written directly (not via
// AddPackageEnergies) so expectations are exact integers with no float
// quantization in the way.
func TestMSRReaderWrapBoundaries(t *testing.T) {
	mod := units.RAPLCounterMod
	cases := []struct {
		name    string
		start   uint64   // counter value when the reader is created
		samples []uint64 // raw counter values written before each Energy() call
		want    uint64   // total accumulated counts after the last sample
	}{
		{"no wrap", 100, []uint64{600}, 500},
		{"exact boundary 2^32-1 to 0", mod - 1, []uint64{0}, 1},
		{"boundary then one more count", mod - 1, []uint64{0, 1}, 2},
		{"wrap landing past zero", mod - 100, []uint64{400}, 500},
		{"wrap landing exactly on zero", mod - 250, []uint64{0}, 250},
		{"max observable delta", 7, []uint64{6}, mod - 1},
		{"two wraps with a sample between", mod - 10, []uint64{90, mod - 5, 95}, 100 + (mod - 95) + 100},
		// Documented limitation of 32-bit wrap correction: if the counter
		// completes a whole number of extra revolutions between samples,
		// those full ranges alias away. Sampling faster than one wrap
		// period (~18 hours at 100 W with 15.3 µJ units) is the contract.
		{"full revolution between samples is invisible", 500, []uint64{500}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			file := msr.NewFile(1, 1)
			if err := file.WritePackage(0, msr.MSRPkgEnergyStatus, tc.start); err != nil {
				t.Fatal(err)
			}
			r, err := NewMSRReader(file)
			if err != nil {
				t.Fatal(err)
			}
			var got units.Joules
			prev, sum := tc.start, uint64(0)
			for _, raw := range tc.samples {
				sum += WrapDelta(prev, raw, mod)
				prev = raw
				if err := file.WritePackage(0, msr.MSRPkgEnergyStatus, raw); err != nil {
					t.Fatal(err)
				}
				if got, err = r.Energy(0); err != nil {
					t.Fatal(err)
				}
			}
			if sum != tc.want {
				t.Errorf("WrapDelta summed to %d counts, want %d", sum, tc.want)
			}
			want := counts(tc.want)
			if got != want {
				t.Errorf("accumulated %v (%v counts), want %v (%d counts)",
					got, float64(got)/float64(units.RAPLUnit), want, tc.want)
			}
		})
	}
}

// TestAddPackageEnergyUnitRounding checks the 15.3 µJ quantization of
// the emulated counter: sub-unit energy is never dropped (the remainder
// carries across calls) and never double-counted. All fractions are
// exact binary multiples of the unit so the expectations are exact.
func TestAddPackageEnergyUnitRounding(t *testing.T) {
	unit := units.RAPLUnit
	cases := []struct {
		name string
		adds []units.Joules
		want []uint64 // expected raw counter after each add
	}{
		{"half unit carries", []units.Joules{unit / 2, unit / 2}, []uint64{0, 1}},
		{"quarter units accumulate", []units.Joules{unit / 4, unit / 4, unit / 4, unit / 4}, []uint64{0, 0, 0, 1}},
		{"one and a half twice", []units.Joules{unit * 1.5, unit * 1.5}, []uint64{1, 3}},
		{"eighths never lose energy", []units.Joules{
			unit / 8, unit / 8, unit / 8, unit / 8,
			unit / 8, unit / 8, unit / 8, unit / 8,
			unit / 8, unit / 8, unit / 8, unit / 8,
			unit / 8, unit / 8, unit / 8, unit / 8,
		}, []uint64{0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 2}},
		{"zero and negative are ignored", []units.Joules{0, -unit, unit * 2}, []uint64{0, 0, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			file := msr.NewFile(1, 1)
			for i, e := range tc.adds {
				if err := file.AddPackageEnergies([]units.Joules{e}); err != nil {
					t.Fatal(err)
				}
				got, err := file.ReadPackage(0, msr.MSRPkgEnergyStatus)
				if err != nil {
					t.Fatal(err)
				}
				if got != tc.want[i] {
					t.Fatalf("after add %d (%v): counter = %d, want %d", i, e, got, tc.want[i])
				}
			}
		})
	}
}

// TestUnitRoundingAcrossWrap combines both mechanisms: the sub-unit
// remainder must carry cleanly through a counter wrap.
func TestUnitRoundingAcrossWrap(t *testing.T) {
	file := msr.NewFile(1, 1)
	if err := file.WritePackage(0, msr.MSRPkgEnergyStatus, units.RAPLCounterMod-1); err != nil {
		t.Fatal(err)
	}
	r, err := NewMSRReader(file)
	if err != nil {
		t.Fatal(err)
	}
	// 1.5 units: one whole count wraps the counter to 0, half a unit stays.
	if err := file.AddPackageEnergies([]units.Joules{units.RAPLUnit * 1.5}); err != nil {
		t.Fatal(err)
	}
	raw, err := file.ReadPackage(0, msr.MSRPkgEnergyStatus)
	if err != nil {
		t.Fatal(err)
	}
	if raw != 0 {
		t.Fatalf("counter after wrap = %d, want 0", raw)
	}
	// The carried half unit completes with another half.
	if err := file.AddPackageEnergies([]units.Joules{units.RAPLUnit / 2}); err != nil {
		t.Fatal(err)
	}
	e, err := r.Energy(0)
	if err != nil {
		t.Fatal(err)
	}
	if want := counts(2); math.Abs(float64(e-want)) > 1e-18 {
		t.Errorf("energy across wrap = %v, want %v", e, want)
	}
}

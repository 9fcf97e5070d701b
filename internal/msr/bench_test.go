package msr

import (
	"testing"

	"repro/internal/units"
)

// BenchmarkAddPackageEnergies measures the engine's per-step counter
// update: one millisecond of two ~60 W packages (about 3,900 counts and
// a fractional remainder each).
func BenchmarkAddPackageEnergies(b *testing.B) {
	f := NewFile(2, 8)
	step := []units.Joules{0.0600007, 0.0600007}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := f.AddPackageEnergies(step); err != nil {
			b.Fatal(err)
		}
	}
}

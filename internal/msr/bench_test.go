package msr

import (
	"testing"

	"repro/internal/units"
)

// BenchmarkAddPackageEnergy measures the engine's per-step, per-socket
// counter update: one millisecond of a ~60 W package (about 3,900 counts
// and a fractional remainder), alternating sockets as the engine does.
func BenchmarkAddPackageEnergy(b *testing.B) {
	f := NewFile(2, 8)
	const e = units.Joules(0.0600007)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := f.AddPackageEnergy(i&1, e); err != nil {
			b.Fatal(err)
		}
	}
}

package msr

import (
	"errors"
	"testing"

	"repro/internal/units"
)

// counts is the energy of n whole RAPL counts.
func counts(n float64) units.Joules { return units.Joules(n * float64(units.RAPLUnit)) }

// TestReadHookInterceptsArchitecturalReads: a read hook sees every
// ReadPackage/ReadCore access with the true value, and its result (value
// or substituted error) is what the caller observes.
func TestReadHookInterceptsArchitecturalReads(t *testing.T) {
	f := NewFile(2, 2)
	if err := addTo(f, 1, counts(500)); err != nil {
		t.Fatal(err)
	}

	var seen []Access
	f.SetReadHook(func(a Access) (uint64, error) {
		seen = append(seen, a)
		return a.Value + 1000, nil
	})
	v, err := f.ReadPackage(1, MSRPkgEnergyStatus)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1500 {
		t.Errorf("hooked package read = %d, want 1500 (true 500 + 1000)", v)
	}
	if _, err := f.ReadCore(3, IA32ClockModulation); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 {
		t.Fatalf("hook saw %d accesses, want 2", len(seen))
	}
	if seen[0].Core || seen[0].Index != 1 || seen[0].Addr != MSRPkgEnergyStatus || seen[0].Value != 500 {
		t.Errorf("package access = %+v", seen[0])
	}
	if !seen[1].Core || seen[1].Index != 3 || seen[1].Addr != IA32ClockModulation {
		t.Errorf("core access = %+v", seen[1])
	}

	// Substituted errors propagate.
	injected := errors.New("injected: rdmsr failed")
	f.SetReadHook(func(Access) (uint64, error) { return 0, injected })
	if _, err := f.ReadPackage(0, MSRPkgEnergyStatus); !errors.Is(err, injected) {
		t.Errorf("hooked read error = %v, want injected", err)
	}

	// Removal restores the raw value.
	f.SetReadHook(nil)
	if v, err := f.ReadPackage(1, MSRPkgEnergyStatus); err != nil || v != 500 {
		t.Errorf("after removal: %d, %v; want 500", v, err)
	}
}

// TestDiagnosticAccessorsBypassHooks: PackageEnergyCounter — the raw
// accessor the simulation engine and the physics audit read — must never
// see injected values; faults corrupt the observation path, not the
// machine's physics.
func TestDiagnosticAccessorsBypassHooks(t *testing.T) {
	f := NewFile(1, 1)
	if err := addTo(f, 0, counts(123)); err != nil {
		t.Fatal(err)
	}
	f.SetReadHook(func(Access) (uint64, error) { return 0, errors.New("injected") })
	defer f.SetReadHook(nil)
	if got := f.PackageEnergyCounter(0); got != 123 {
		t.Errorf("PackageEnergyCounter through a faulting hook = %d, want 123", got)
	}
	// AddPackageEnergies' internal read-modify-write is equally immune.
	if err := addTo(f, 0, counts(7)); err != nil {
		t.Fatal(err)
	}
	if got := f.PackageEnergyCounter(0); got != 130 {
		t.Errorf("PackageEnergyCounter after accumulate = %d, want 130", got)
	}
}

package rapl

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/msr"
	"repro/internal/units"
)

// counts is the energy of n whole RAPL counts, as the reader books it.
func counts(n uint64) units.Joules { return units.Joules(float64(n) * float64(units.RAPLUnit)) }

func TestMSRReaderBasic(t *testing.T) {
	file := msr.NewFile(2, 8)
	r, err := NewMSRReader(file)
	if err != nil {
		t.Fatal(err)
	}
	if r.Domains() != 2 {
		t.Errorf("Domains() = %d, want 2", r.Domains())
	}
	e, err := r.Energy(0)
	if err != nil {
		t.Fatal(err)
	}
	if e != 0 {
		t.Errorf("initial energy = %v, want 0", e)
	}
	if err := file.AddPackageEnergies([]units.Joules{100}); err != nil {
		t.Fatal(err)
	}
	e, err = r.Energy(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(e-100)) > 0.001 {
		t.Errorf("energy = %v, want ~100 J", e)
	}
	// Domain 1 untouched.
	e, err = r.Energy(1)
	if err != nil {
		t.Fatal(err)
	}
	if e != 0 {
		t.Errorf("domain 1 energy = %v, want 0", e)
	}
}

func TestMSRReaderZeroesAtCreation(t *testing.T) {
	file := msr.NewFile(1, 1)
	if err := file.AddPackageEnergies([]units.Joules{500}); err != nil {
		t.Fatal(err)
	}
	r, err := NewMSRReader(file)
	if err != nil {
		t.Fatal(err)
	}
	e, err := r.Energy(0)
	if err != nil {
		t.Fatal(err)
	}
	if e != 0 {
		t.Errorf("energy after creation = %v, want 0 (pre-existing counts ignored)", e)
	}
}

func TestMSRReaderWrap(t *testing.T) {
	file := msr.NewFile(1, 1)
	// Park the counter near the top.
	near := units.RAPLCounterMod - 100
	if err := file.WritePackage(0, msr.MSRPkgEnergyStatus, near); err != nil {
		t.Fatal(err)
	}
	r, err := NewMSRReader(file)
	if err != nil {
		t.Fatal(err)
	}
	// Add enough to wrap: 300 counts from (mod-100).
	if err := file.AddPackageEnergies([]units.Joules{counts(300)}); err != nil {
		t.Fatal(err)
	}
	e, err := r.Energy(0)
	if err != nil {
		t.Fatal(err)
	}
	want := counts(300)
	if math.Abs(float64(e-want)) > 1e-9 {
		t.Errorf("wrapped energy = %v, want %v", e, want)
	}
}

func TestMSRReaderMonotonicAcrossManyWraps(t *testing.T) {
	file := msr.NewFile(1, 1)
	r, err := NewMSRReader(file)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a long run with polling between wraps: each chunk is less
	// than one full counter range.
	chunk := counts(units.RAPLCounterMod / 2)
	var prev units.Joules
	for i := 0; i < 6; i++ {
		if err := file.AddPackageEnergies([]units.Joules{chunk}); err != nil {
			t.Fatal(err)
		}
		e, err := r.Energy(0)
		if err != nil {
			t.Fatal(err)
		}
		if e < prev {
			t.Fatalf("energy went backwards: %v after %v", e, prev)
		}
		prev = e
	}
	want := 6 * float64(chunk)
	if math.Abs(float64(prev)-want)/want > 1e-9 {
		t.Errorf("total = %v, want %v", prev, units.Joules(want))
	}
}

func TestMSRReaderDomainErrors(t *testing.T) {
	file := msr.NewFile(2, 2)
	r, err := NewMSRReader(file)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Energy(-1); err == nil {
		t.Error("Energy(-1) succeeded")
	}
	if _, err := r.Energy(2); err == nil {
		t.Error("Energy(2) succeeded")
	}
}

func TestNewMSRReaderNilFile(t *testing.T) {
	if _, err := NewMSRReader(nil); err == nil {
		t.Error("NewMSRReader(nil) succeeded")
	}
}

func TestFakeDomainError(t *testing.T) {
	f := NewFake(1)
	if _, err := f.Energy(5); err == nil {
		t.Error("fake Energy(5) succeeded")
	}
}

// writeSysfsDomain builds one fake powercap package directory.
func writeSysfsDomain(t *testing.T, root, dir, name string, energyUJ, maxRange uint64) string {
	t.Helper()
	p := filepath.Join(root, dir)
	if err := os.MkdirAll(p, 0o755); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{
		"name":                name + "\n",
		"energy_uj":           itoa(energyUJ) + "\n",
		"max_energy_range_uj": itoa(maxRange) + "\n",
	}
	for f, content := range files {
		if err := os.WriteFile(filepath.Join(p, f), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func TestSysfsReader(t *testing.T) {
	root := t.TempDir()
	p0 := writeSysfsDomain(t, root, "intel-rapl:0", "package-0", 1_000_000, 262143328850)
	writeSysfsDomain(t, root, "intel-rapl:1", "package-1", 500_000, 262143328850)
	// Sub-zones and non-package zones must be ignored.
	writeSysfsDomain(t, root, "intel-rapl:0:0", "core", 1, 1000)
	writeSysfsDomain(t, root, "intel-rapl-mmio:0", "package-0", 1, 1000)

	r, err := NewSysfsReader(root)
	if err != nil {
		t.Fatal(err)
	}
	if r.Domains() != 2 {
		t.Fatalf("Domains() = %d, want 2", r.Domains())
	}
	if r.Name(0) != "package-0" {
		t.Errorf("Name(0) = %q", r.Name(0))
	}
	e, err := r.Energy(0)
	if err != nil {
		t.Fatal(err)
	}
	if e != 0 {
		t.Errorf("initial energy = %v, want 0", e)
	}
	// Advance domain 0 by 2.5 J.
	if err := os.WriteFile(filepath.Join(p0, "energy_uj"), []byte("3500000\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	e, err = r.Energy(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(e-2.5)) > 1e-9 {
		t.Errorf("energy = %v, want 2.5 J", e)
	}
}

func TestSysfsReaderWrap(t *testing.T) {
	root := t.TempDir()
	const maxRange = 1_000_000 // 1 J range for easy wrap
	p0 := writeSysfsDomain(t, root, "intel-rapl:0", "package-0", 900_000, maxRange)
	r, err := NewSysfsReader(root)
	if err != nil {
		t.Fatal(err)
	}
	// Wrap: 900000 -> 100000 means 200000 µJ consumed.
	if err := os.WriteFile(filepath.Join(p0, "energy_uj"), []byte("100000\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	e, err := r.Energy(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(e-0.2)) > 1e-9 {
		t.Errorf("wrapped energy = %v, want 0.2 J", e)
	}
}

func TestSysfsReaderNoDomains(t *testing.T) {
	if _, err := NewSysfsReader(t.TempDir()); err == nil {
		t.Error("NewSysfsReader on empty dir succeeded")
	}
	if _, err := NewSysfsReader(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("NewSysfsReader on missing dir succeeded")
	}
}

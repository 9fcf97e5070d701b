package rapl

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/msr"
	"repro/internal/units"
)

// fakeMSRDevice writes a sparse file that looks like /dev/cpu/N/msr:
// 8-byte registers at their addresses.
type fakeMSRDevice struct {
	t    *testing.T
	path string
}

func newFakeMSRDevice(t *testing.T, dir string, cpu int, esu uint64, energyCount uint32) fakeMSRDevice {
	t.Helper()
	path := filepath.Join(dir, fmt.Sprintf("msr%d", cpu))
	d := fakeMSRDevice{t: t, path: path}
	// Size the file past the highest register.
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(int64(msr.MSRPkgEnergyStatus) + 16); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	d.writeReg(msr.MSRRAPLPowerUnit, esu<<8)
	d.writeReg(msr.MSRPkgEnergyStatus, uint64(energyCount))
	return d
}

func (d fakeMSRDevice) writeReg(addr uint32, v uint64) {
	d.t.Helper()
	f, err := os.OpenFile(d.path, os.O_WRONLY, 0)
	if err != nil {
		d.t.Fatal(err)
	}
	defer f.Close()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	if _, err := f.WriteAt(buf[:], int64(addr)); err != nil {
		d.t.Fatal(err)
	}
}

func TestDevMSRReader(t *testing.T) {
	dir := t.TempDir()
	d0 := newFakeMSRDevice(t, dir, 0, 16, 1000) // ESU 16: 2^-16 J units
	d8 := newFakeMSRDevice(t, dir, 8, 16, 500)
	pattern := filepath.Join(dir, "msr%d")

	r, err := NewDevMSRReader(pattern, []int{0, 8})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Domains() != 2 {
		t.Fatalf("Domains = %d", r.Domains())
	}
	// Zeroed at creation.
	for dom := 0; dom < 2; dom++ {
		e, err := r.Energy(dom)
		if err != nil {
			t.Fatal(err)
		}
		if e != 0 {
			t.Errorf("initial energy[%d] = %v", dom, e)
		}
	}
	// Advance package 0 by 65536 counts = exactly 1 J at 2^-16 units.
	d0.writeReg(msr.MSRPkgEnergyStatus, 1000+65536)
	e, err := r.Energy(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(e-1)) > 1e-9 {
		t.Errorf("energy after 65536 counts = %v, want 1 J", e)
	}
	// Package 1 untouched.
	if e, _ := r.Energy(1); e != 0 {
		t.Errorf("package 1 moved to %v", e)
	}
	_ = d8
}

func TestDevMSRReaderWrap(t *testing.T) {
	dir := t.TempDir()
	d := newFakeMSRDevice(t, dir, 0, 16, uint32(units.RAPLCounterMod-100))
	pattern := filepath.Join(dir, "msr%d")
	r, err := NewDevMSRReader(pattern, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	d.writeReg(msr.MSRPkgEnergyStatus, 200) // wrapped: 300 counts
	e, err := r.Energy(0)
	if err != nil {
		t.Fatal(err)
	}
	want := 300.0 / 65536
	if math.Abs(float64(e)-want) > 1e-12 {
		t.Errorf("wrapped energy = %v, want %g J", e, want)
	}
}

func TestDevMSRReaderErrors(t *testing.T) {
	if _, err := NewDevMSRReader("", nil); err == nil {
		t.Error("empty CPU list accepted")
	}
	if _, err := NewDevMSRReader(filepath.Join(t.TempDir(), "absent%d"), []int{0}); err == nil {
		t.Error("missing device accepted")
	}
	dir := t.TempDir()
	newFakeMSRDevice(t, dir, 0, 16, 0)
	r, err := NewDevMSRReader(filepath.Join(dir, "msr%d"), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Energy(3); err == nil {
		t.Error("out-of-range domain accepted")
	}
}

func TestDevMSRReaderHonorsUnitField(t *testing.T) {
	dir := t.TempDir()
	d := newFakeMSRDevice(t, dir, 0, 14, 0) // 2^-14 J units
	r, err := NewDevMSRReader(filepath.Join(dir, "msr%d"), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	d.writeReg(msr.MSRPkgEnergyStatus, 1<<14)
	e, err := r.Energy(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(e-1)) > 1e-9 {
		t.Errorf("2^14 counts at 2^-14 J = %v, want 1 J", e)
	}
}

package msr

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func newTestFile(t *testing.T) *File {
	t.Helper()
	return NewFile(2, 8)
}

func TestNewFileTopology(t *testing.T) {
	f := newTestFile(t)
	if f.Sockets() != 2 {
		t.Errorf("Sockets() = %d, want 2", f.Sockets())
	}
	if f.Cores() != 16 {
		t.Errorf("Cores() = %d, want 16", f.Cores())
	}
}

func TestNewFilePanicsOnBadTopology(t *testing.T) {
	for _, c := range []struct{ s, c int }{{0, 8}, {2, 0}, {-1, 8}, {2, -3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewFile(%d, %d) did not panic", c.s, c.c)
				}
			}()
			NewFile(c.s, c.c)
		}()
	}
}

func TestEnergyCounterStartsAtZero(t *testing.T) {
	f := newTestFile(t)
	for s := 0; s < 2; s++ {
		if got := f.PackageEnergyCounter(s); got != 0 {
			t.Errorf("socket %d initial energy counter = %d, want 0", s, got)
		}
	}
}

func TestAddPackageEnergyQuantizes(t *testing.T) {
	f := newTestFile(t)
	if err := f.AddPackageEnergy(0, units.RAPLUnit*10); err != nil {
		t.Fatal(err)
	}
	if got := f.PackageEnergyCounter(0); got != 10 {
		t.Errorf("counter after 10 units = %d, want 10", got)
	}
	// Other socket untouched.
	if got := f.PackageEnergyCounter(1); got != 0 {
		t.Errorf("socket 1 counter = %d, want 0", got)
	}
}

func TestAddPackageEnergyCarriesRemainder(t *testing.T) {
	f := newTestFile(t)
	// Add half a unit twice: first add leaves counter unchanged, second
	// completes one whole count.
	half := units.RAPLUnit / 2
	if err := f.AddPackageEnergy(0, half); err != nil {
		t.Fatal(err)
	}
	if got := f.PackageEnergyCounter(0); got != 0 {
		t.Errorf("counter after half unit = %d, want 0", got)
	}
	if err := f.AddPackageEnergy(0, half); err != nil {
		t.Fatal(err)
	}
	if got := f.PackageEnergyCounter(0); got != 1 {
		t.Errorf("counter after two halves = %d, want 1", got)
	}
}

func TestAddPackageEnergyNeverLosesEnergy(t *testing.T) {
	// Property: after many small irregular additions, the counter equals
	// the quantized total (within one count for the outstanding remainder).
	f := newTestFile(t)
	total := 0.0
	add := 0.37e-6 // much smaller than one 15.3 µJ unit
	for i := 0; i < 10000; i++ {
		if err := f.AddPackageEnergy(0, units.Joules(add)); err != nil {
			t.Fatal(err)
		}
		total += add
	}
	want := uint64(total / float64(units.RAPLUnit))
	got := uint64(f.PackageEnergyCounter(0))
	if got != want && got != want-1 && got != want+1 {
		t.Errorf("counter = %d, want %d ±1", got, want)
	}
}

func TestAddPackageEnergyWraps(t *testing.T) {
	f := newTestFile(t)
	// Preload the counter near the top, then push it over.
	if err := f.WritePackage(0, MSRPkgEnergyStatus, uint64(units.RAPLCounterMod-5)); err != nil {
		t.Fatal(err)
	}
	if err := f.AddPackageEnergy(0, units.RAPLUnit*12); err != nil {
		t.Fatal(err)
	}
	if got := f.PackageEnergyCounter(0); got != 7 {
		t.Errorf("counter after wrap = %d, want 7", got)
	}
}

func TestAddPackageEnergyIgnoresNegative(t *testing.T) {
	f := newTestFile(t)
	if err := f.AddPackageEnergy(0, -1); err != nil {
		t.Fatal(err)
	}
	if got := f.PackageEnergyCounter(0); got != 0 {
		t.Errorf("counter after negative add = %d, want 0", got)
	}
}

func TestAddPackageEnergyRangeError(t *testing.T) {
	f := newTestFile(t)
	err := f.AddPackageEnergy(5, 1)
	var re *RangeError
	if !errors.As(err, &re) {
		t.Fatalf("AddPackageEnergy(5, 1) error = %v, want RangeError", err)
	}
	if re.Kind != "socket" || re.Index != 5 {
		t.Errorf("RangeError = %+v, want socket/5", re)
	}
}

func TestReadUnimplementedRegister(t *testing.T) {
	f := newTestFile(t)
	if _, err := f.ReadPackage(0, 0xDEAD); err == nil {
		t.Error("ReadPackage of bogus register succeeded, want error")
	}
	var ae *AddrError
	_, err := f.ReadCore(0, 0xDEAD)
	if !errors.As(err, &ae) {
		t.Errorf("ReadCore bogus error = %v, want AddrError", err)
	}
}

func TestScopeEnforced(t *testing.T) {
	f := newTestFile(t)
	// Energy status is package-scoped: core access must fail.
	if _, err := f.ReadCore(0, MSRPkgEnergyStatus); err == nil {
		t.Error("ReadCore(PKG_ENERGY_STATUS) succeeded, want scope error")
	}
	// Clock modulation is core-scoped: package access must fail.
	if err := f.WritePackage(0, IA32ClockModulation, 0); err == nil {
		t.Error("WritePackage(CLOCK_MODULATION) succeeded, want scope error")
	}
}

func TestRAPLPowerUnitRegister(t *testing.T) {
	f := newTestFile(t)
	v, err := f.ReadPackage(1, MSRRAPLPowerUnit)
	if err != nil {
		t.Fatal(err)
	}
	if esu := (v >> 8) & 0x1F; esu != 0x10 {
		t.Errorf("energy-status unit field = %#x, want 0x10", esu)
	}
}

func TestThermStatusRoundTrip(t *testing.T) {
	for _, temp := range []units.Celsius{25, 40, 71.9, 98} {
		v := EncodeThermStatus(temp)
		if v&thermReadingValid == 0 {
			t.Fatalf("reading for %v not valid", temp)
		}
		got := TjMax - units.Celsius((v&thermReadoutMask)>>thermReadoutShift)
		if math.Abs(float64(got-temp)) > 1 { // 1 °C quantization
			t.Errorf("therm round trip %v -> %v", temp, got)
		}
	}
}

func TestThermStatusClamps(t *testing.T) {
	// Above TjMax clamps to a readout of 0 degrees below TjMax.
	if got := EncodeThermStatus(150); got != thermReadingValid {
		t.Errorf("therm above TjMax encodes to %#x, want %#x", got, thermReadingValid)
	}
	// Far below clamps to TjMax-127.
	if got, want := EncodeThermStatus(-100), thermReadingValid|thermReadoutMask; got != want {
		t.Errorf("therm far below encodes to %#x, want %#x", got, want)
	}
}

func TestSetCoreTemperature(t *testing.T) {
	f := newTestFile(t)
	if err := f.SetCoreTemperature(3, 72); err != nil {
		t.Fatal(err)
	}
	if got, err := f.ReadCore(3, IA32ThermStatus); err != nil || got != EncodeThermStatus(72) {
		t.Errorf("core 3 thermal status = %#x, %v; want %#x", got, err, EncodeThermStatus(72))
	}
	// Other cores keep the power-on value.
	if got, err := f.ReadCore(4, IA32ThermStatus); err != nil || got != EncodeThermStatus(40) {
		t.Errorf("untouched core thermal status = %#x, %v; want %#x", got, err, EncodeThermStatus(40))
	}
}

func TestClockModulationDisabled(t *testing.T) {
	if got := DutyCycle(0); got != 1 {
		t.Errorf("DutyCycle(0) = %v, want 1", got)
	}
	if v := EncodeClockModulation(false, 4); v != 0 {
		t.Errorf("EncodeClockModulation(false, 4) = %#x, want 0", v)
	}
}

func TestClockModulationLevels(t *testing.T) {
	cases := []struct {
		level int
		want  float64
	}{
		{1, 1.0 / 32},
		{8, 0.25},
		{16, 0.5},
		{32, 1.0},
		{-3, 1.0 / 32}, // clamped up
		{99, 1.0},      // clamped down
	}
	for _, c := range cases {
		v := EncodeClockModulation(true, c.level)
		if got := DutyCycle(v); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("DutyCycle(level %d) = %v, want %v", c.level, got, c.want)
		}
	}
}

func TestClockModulationRoundTripProperty(t *testing.T) {
	f := func(levelRaw uint8) bool {
		level := int(levelRaw%DutyLevels) + 1 // [1, 32]
		v := EncodeClockModulation(true, level)
		en, got := DecodeClockModulation(v)
		if !en {
			return false
		}
		// Level 32 encodes as field 32&0x1F == 0, decoding back to 32.
		return got == level
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSetCoreDuty(t *testing.T) {
	f := newTestFile(t)
	if err := f.SetCoreDuty(7, true, 1); err != nil {
		t.Fatal(err)
	}
	got, err := f.CoreDuty(7)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1.0/32) > 1e-12 {
		t.Errorf("CoreDuty = %v, want 1/32", got)
	}
	// Restore full speed.
	if err := f.SetCoreDuty(7, false, 0); err != nil {
		t.Fatal(err)
	}
	got, err = f.CoreDuty(7)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("CoreDuty after disable = %v, want 1", got)
	}
}

func TestAddCoreCycles(t *testing.T) {
	f := newTestFile(t)
	if err := f.AddCoreCycles(0, 1000); err != nil {
		t.Fatal(err)
	}
	if err := f.AddCoreCycles(0, 500); err != nil {
		t.Fatal(err)
	}
	v, err := f.ReadCore(0, IA32TimeStampCounter)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1500 {
		t.Errorf("TSC = %d, want 1500", v)
	}
	// Negative and zero cycles are ignored.
	if err := f.AddCoreCycles(0, -10); err != nil {
		t.Fatal(err)
	}
	v, _ = f.ReadCore(0, IA32TimeStampCounter)
	if v != 1500 {
		t.Errorf("TSC after negative add = %d, want 1500", v)
	}
}

func TestCoreRangeErrors(t *testing.T) {
	f := newTestFile(t)
	if _, err := f.ReadCore(16, IA32ThermStatus); err == nil {
		t.Error("ReadCore(16) succeeded, want range error")
	}
	if _, err := f.ReadCore(-1, IA32ThermStatus); err == nil {
		t.Error("ReadCore(-1) succeeded, want range error")
	}
	if err := f.WriteCore(99, IA32ThermStatus, 0); err == nil {
		t.Error("WriteCore(99) succeeded, want range error")
	}
}

func TestConcurrentEnergyAccumulation(t *testing.T) {
	f := newTestFile(t)
	const goroutines = 8
	const perG = 1000
	done := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < perG; i++ {
				if err := f.AddPackageEnergy(0, units.RAPLUnit); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for g := 0; g < goroutines; g++ {
		<-done
	}
	if got := f.PackageEnergyCounter(0); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
}

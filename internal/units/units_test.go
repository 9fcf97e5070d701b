package units

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestPowerOver(t *testing.T) {
	cases := []struct {
		e    Joules
		d    time.Duration
		want Watts
	}{
		{100, time.Second, 100},
		{100, 2 * time.Second, 50},
		{0, time.Second, 0},
		{100, 500 * time.Millisecond, 200},
		{1, time.Millisecond, 1000},
	}
	for _, c := range cases {
		got := PowerOver(c.e, c.d)
		if math.Abs(float64(got-c.want)) > 1e-9 {
			t.Errorf("PowerOver(%v, %v) = %v, want %v", c.e, c.d, got, c.want)
		}
	}
}

func TestPowerOverZeroDuration(t *testing.T) {
	if got := PowerOver(100, 0); got != 0 {
		t.Errorf("PowerOver(100, 0) = %v, want 0", got)
	}
	if got := PowerOver(100, -time.Second); got != 0 {
		t.Errorf("PowerOver(100, -1s) = %v, want 0", got)
	}
}

func TestEnergyPowerRoundTrip(t *testing.T) {
	f := func(wRaw uint16, ms uint16) bool {
		w := Watts(float64(wRaw) / 16)
		d := time.Duration(int(ms)+1) * time.Millisecond
		back := PowerOver(Joules(float64(w)*d.Seconds()), d)
		return math.Abs(float64(back-w)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJoulesString(t *testing.T) {
	cases := []struct {
		j    Joules
		want string
	}{
		{0, "0 J"},
		{15.3e-6, "15.3 µJ"},
		{0.5, "500.00 mJ"},
		{1234.5, "1234.5 J"},
		{25000, "25.00 kJ"},
	}
	for _, c := range cases {
		if got := c.j.String(); got != c.want {
			t.Errorf("Joules(%g).String() = %q, want %q", float64(c.j), got, c.want)
		}
	}
}

func TestWattsString(t *testing.T) {
	if got := Watts(134.94).String(); got != "134.9 W" {
		t.Errorf("Watts.String() = %q, want %q", got, "134.9 W")
	}
}

func TestHertzString(t *testing.T) {
	cases := []struct {
		h    Hertz
		want string
	}{
		{2.7 * GHz, "2.70 GHz"},
		{100 * MHz, "100.0 MHz"},
		{44.1 * KHz, "44.1 kHz"},
		{60, "60 Hz"},
	}
	for _, c := range cases {
		if got := c.h.String(); got != c.want {
			t.Errorf("Hertz(%g).String() = %q, want %q", float64(c.h), got, c.want)
		}
	}
}

func TestCelsiusString(t *testing.T) {
	if got := Celsius(71.25).String(); !strings.HasPrefix(got, "71.2") {
		t.Errorf("Celsius.String() = %q, want prefix 71.2", got)
	}
}

func TestBytesPerSecondString(t *testing.T) {
	cases := []struct {
		b    BytesPerSecond
		want string
	}{
		{32e9, "32.00 GB/s"},
		{5e6, "5.0 MB/s"},
		{2e3, "2.0 kB/s"},
		{12, "12 B/s"},
	}
	for _, c := range cases {
		if got := c.b.String(); got != c.want {
			t.Errorf("BytesPerSecond(%g).String() = %q, want %q", float64(c.b), got, c.want)
		}
	}
}

func TestRAPLCounterModConsistent(t *testing.T) {
	if RAPLCounterMod != uint64(1)<<RAPLCounterBits {
		t.Fatalf("RAPLCounterMod inconsistent with RAPLCounterBits")
	}
}

package phase

import (
	"math"
	"strings"
	"testing"
)

func feed(d *Detector, n int, s Sample) (fires int) {
	for i := 0; i < n; i++ {
		if d.Observe(s) {
			fires++
		}
	}
	return fires
}

func TestDetectorStablePhaseNeverFires(t *testing.T) {
	d := New()
	if got := feed(d, 500, Sample{Power: 120, Bw: 30e9, Conc: 25}); got != 0 {
		t.Fatalf("stable stream fired %d change points, want 0", got)
	}
}

func TestDetectorFiresOnRegimeShift(t *testing.T) {
	d := New()
	feed(d, 50, Sample{Power: 120, Bw: 30e9, Conc: 25})
	if got := feed(d, 20, Sample{Power: 60, Bw: 5e9, Conc: 3}); got != 1 {
		t.Fatalf("regime shift fired %d change points, want exactly 1", got)
	}
	// Settled in the new phase: no further fires.
	if got := feed(d, 200, Sample{Power: 60, Bw: 5e9, Conc: 3}); got != 0 {
		t.Fatalf("post-shift steady state fired %d more, want 0", got)
	}
}

func TestDetectorSingleSpikeDebounced(t *testing.T) {
	d := New()
	feed(d, 50, Sample{Power: 120, Bw: 30e9, Conc: 25})
	if d.Observe(Sample{Power: 500, Bw: 90e9, Conc: 80}) {
		t.Fatal("single-sample spike fired a change point")
	}
	if got := feed(d, 100, Sample{Power: 120, Bw: 30e9, Conc: 25}); got != 0 {
		t.Fatalf("return to baseline after one spike fired %d, want 0", got)
	}
}

func TestDetectorIgnoresNonFinite(t *testing.T) {
	d := New()
	feed(d, 50, Sample{Power: 120, Bw: 30e9, Conc: 25})
	bad := []Sample{
		{Power: math.NaN(), Bw: 30e9, Conc: 25},
		{Power: 120, Bw: math.Inf(1), Conc: 25},
		{Power: 120, Bw: 30e9, Conc: math.Inf(-1)},
	}
	for _, s := range bad {
		if d.Observe(s) {
			t.Fatalf("non-finite sample %+v fired a change point", s)
		}
	}
	// Trackers must be unpoisoned: a later clean shift still detects.
	if got := feed(d, 20, Sample{Power: 60, Bw: 5e9, Conc: 3}); got != 1 {
		t.Fatalf("shift after non-finite garbage fired %d, want 1", got)
	}
}

func TestDetectorResetRewarms(t *testing.T) {
	d := New()
	feed(d, 50, Sample{Power: 120, Bw: 30e9, Conc: 25})
	if got := feed(d, 20, Sample{Power: 60, Bw: 5e9, Conc: 3}); got != 1 {
		t.Fatalf("setup: regime shift fired %d change points, want 1", got)
	}
	d.Reset()
	// After a reset the detector re-warms: the first samples of a very
	// different regime must not fire (no trustworthy baseline to diff
	// against) but a later shift must.
	if got := feed(d, 30, Sample{Power: 200, Bw: 1e9, Conc: 1}); got != 0 {
		t.Fatalf("first regime after Reset fired %d, want 0 (it is the new baseline)", got)
	}
	if got := feed(d, 20, Sample{Power: 100, Bw: 20e9, Conc: 20}); got != 1 {
		t.Fatalf("shift after Reset fired %d, want 1", got)
	}
}

func TestDetectorDefaults(t *testing.T) {
	if !(0 < slowAlpha && slowAlpha < fastAlpha && fastAlpha <= 1) {
		t.Fatalf("alphas %v/%v: want 0 < slow < fast <= 1", slowAlpha, fastAlpha)
	}
	if threshold <= 0 || minRun <= 0 || cooldown <= 0 || warmup <= 0 {
		t.Fatal("every detector constant must be positive")
	}
}

func TestDecodeSamples(t *testing.T) {
	in := `# power bw conc
120 30e9 25

 60.5	5e9	3
`
	got, err := DecodeSamples(strings.NewReader(in))
	if err != nil {
		t.Fatalf("DecodeSamples: %v", err)
	}
	want := []Sample{{120, 30e9, 25}, {60.5, 5e9, 3}}
	if len(got) != len(want) {
		t.Fatalf("decoded %d samples, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestDecodeSamplesRejectsGarbage(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"wrong-arity", "1 2"},
		{"extra-field", "1 2 3 4"},
		{"not-a-number", "1 x 3"},
		{"nan", "NaN 2 3"},
		{"inf", "1 +Inf 3"},
		{"negative", "1 -2 3"},
	}
	for _, c := range cases {
		if _, err := DecodeSamples(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: decoded %q without error", c.name, c.in)
		}
	}
}

func TestDecodeSamplesLineTooLong(t *testing.T) {
	long := strings.Repeat("1", maxLineBytes+10)
	if _, err := DecodeSamples(strings.NewReader(long)); err != ErrLineTooLong {
		t.Fatalf("err = %v, want ErrLineTooLong", err)
	}
}

func TestReplayMarksShift(t *testing.T) {
	samples := make([]Sample, 0, 60)
	for i := 0; i < 40; i++ {
		samples = append(samples, Sample{Power: 120, Bw: 30e9, Conc: 25})
	}
	for i := 0; i < 20; i++ {
		samples = append(samples, Sample{Power: 60, Bw: 5e9, Conc: 3})
	}
	marks := Replay(samples)
	if len(marks) != 1 {
		t.Fatalf("Replay marked %d change points %v, want 1", len(marks), marks)
	}
	if marks[0] < 40 || marks[0] > 45 {
		t.Fatalf("change point at sample %d, want within a few samples of the shift at 40", marks[0])
	}
}

// FuzzDecodeSamples is the change-point input decoder's totality gate:
// arbitrary bytes must either decode into finite samples or return an
// error — no panics, no NaN/Inf/negative values escaping, and the
// decoded stream must be safe to replay through the detector.
func FuzzDecodeSamples(f *testing.F) {
	f.Add([]byte("120 30e9 25\n60 5e9 3\n"))
	f.Add([]byte("# comment\n\n1.5e2\t3.0e10\t2.5e1\n"))
	f.Add([]byte("NaN 1 2\n"))
	f.Add([]byte("1 2 3 4\n"))
	f.Add([]byte(strings.Repeat("7 7 7\n", 100)))
	f.Fuzz(func(t *testing.T, data []byte) {
		samples, err := DecodeSamples(strings.NewReader(string(data)))
		if err != nil {
			return
		}
		for i, s := range samples {
			for _, v := range [...]float64{s.Power, s.Bw, s.Conc} {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Fatalf("sample %d: non-physical value %v decoded without error", i, v)
				}
			}
		}
		Replay(samples)
	})
}

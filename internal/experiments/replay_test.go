package experiments

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/compiler"
	"repro/internal/maestro"
	"repro/internal/qthreads"
)

// cellReplay is everything a cell run leaves behind that a second run of
// the same cell must reproduce to the bit.
type cellReplay struct {
	seconds, joules uint64
	daemon          maestro.Stats
	trace           string
}

// TestRunReplay is the replay gate: a cell is a pure function of its
// seed. Every program with a gcc -O2 build runs at 1, 12 and 16 workers,
// fixed with parking idlers and under the MAESTRO daemon with spinning
// ones (only the 16-worker third under -short), four times — twice as the
// host is, once on a single P and once with the collector running twice
// as often — and the four runs must agree on the bits of seconds and joules, the daemon's statistics and
// every byte of the scheduler trace. Nothing about the host's scheduling
// or collection may reach the virtual timeline.
func TestRunReplay(t *testing.T) {
	lab := NewLab()
	var specs []RunSpec
	for _, app := range compiler.Apps() {
		if !compiler.Supported(app, compiler.GCC) {
			continue
		}
		for _, workers := range []int{1, ThrottledThreads, FullThreads} {
			if testing.Short() && workers != FullThreads {
				continue
			}
			fixed := RunSpec{App: app, Target: compiler.Baseline, Workers: workers}
			dynamic := fixed
			dynamic.SpinOnlyIdle, dynamic.Throttle = true, ThrottleDynamic
			specs = append(specs, fixed, dynamic)
		}
	}
	asIs := func() func() { return func() {} }
	hosts := []struct {
		name string
		set  func() (restore func())
	}{
		{"default", asIs},
		{"default again", asIs},
		{"GOMAXPROCS=1", func() func() {
			old := runtime.GOMAXPROCS(1)
			return func() { runtime.GOMAXPROCS(old) }
		}},
		{"GOGC=50", func() func() {
			old := debug.SetGCPercent(50)
			return func() { debug.SetGCPercent(old) }
		}},
	}
	var first []cellReplay
	for _, h := range hosts {
		got := make([]cellReplay, len(specs))
		restore := h.set()
		err := lab.runCells(len(specs), func(i int) (err error) {
			got[i], err = replayCell(lab, specs[i])
			return err
		})
		restore()
		if err != nil {
			t.Fatalf("%s: %v", h.name, err)
		}
		if first == nil {
			first = got
			continue
		}
		for i, spec := range specs {
			if a, b := first[i], got[i]; a != b {
				t.Errorf("%s/%d dynamic=%v: run %q differs from the first: %.9f s %.6f J %+v (trace equal: %v), first %.9f s %.6f J %+v",
					spec.App, spec.Workers, spec.Throttle == ThrottleDynamic, h.name,
					math.Float64frombits(b.seconds), math.Float64frombits(b.joules), b.daemon, a.trace == b.trace,
					math.Float64frombits(a.seconds), math.Float64frombits(a.joules), a.daemon)
			}
		}
	}
}

func replayCell(lab *Lab, spec RunSpec) (cellReplay, error) {
	rec := qthreads.NewRecorder(0)
	m, err := lab.runOnceSeeded(spec, lab.Seed, rec)
	if err != nil {
		return cellReplay{}, err
	}
	var csv bytes.Buffer
	if err := rec.WriteCSV(&csv); err != nil {
		return cellReplay{}, fmt.Errorf("writing trace: %w", err)
	}
	return cellReplay{
		seconds: math.Float64bits(m.Seconds),
		joules:  math.Float64bits(m.Joules),
		daemon:  m.Daemon,
		trace:   csv.String(),
	}, nil
}

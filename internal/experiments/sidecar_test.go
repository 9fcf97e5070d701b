package experiments

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/compiler"
	"repro/internal/maestro"
	"repro/internal/telemetry"
)

// decodeSidecar reads a sidecar stream back, one JSON object a line, as
// an analysis script would.
func decodeSidecar(r io.Reader) ([]RunTelemetry, error) {
	var out []RunTelemetry
	for dec := json.NewDecoder(r); dec.More(); {
		var rec RunTelemetry
		if err := dec.Decode(&rec); err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, nil
}

// TestTelemetryOnlyObserves: instrumenting a cell must not change what
// it measures. Telemetry on records through live instruments, off
// through nil ones; either way the run's seconds, joules and daemon
// statistics (the power cap's counters among them) agree bit for bit.
func TestTelemetryOnlyObserves(t *testing.T) {
	throttled := RunSpec{Workers: FullThreads, SpinOnlyIdle: true, Throttle: ThrottleDynamic}
	health, lulesh := throttled, throttled
	health.App, lulesh.App = compiler.AppHealth, compiler.AppLULESH
	capped := throttled
	capped.App, capped.Maestro = compiler.AppHealth, maestro.Config{Policy: maestro.PowerCapped, Cap: 120}
	for _, spec := range []RunSpec{health, lulesh, capped} {
		off, err := NewLab().Measure(spec)
		if err != nil {
			t.Fatal(err)
		}
		lab := NewLab()
		records := 0
		lab.Telemetry = func(RunTelemetry) { records++ }
		on, err := lab.Measure(spec)
		if err != nil {
			t.Fatal(err)
		}
		if records != 1 {
			t.Fatalf("%s: telemetry sink got %d records, want 1", spec.App, records)
		}
		if math.Float64bits(on.Seconds) != math.Float64bits(off.Seconds) ||
			math.Float64bits(on.Joules) != math.Float64bits(off.Joules) {
			t.Errorf("%s (cap %v): telemetry on %v s / %v J, off %v s / %v J",
				spec.App, spec.Maestro.Cap, on.Seconds, on.Joules, off.Seconds, off.Joules)
		}
		if off.Daemon.Samples == 0 {
			t.Errorf("%s (cap %v): no daemon poll ran", spec.App, spec.Maestro.Cap)
		}
		if on.Daemon != off.Daemon {
			t.Errorf("%s (cap %v): telemetry on %+v, off %+v",
				spec.App, spec.Maestro.Cap, on.Daemon, off.Daemon)
		}
	}
}

// TestLabTelemetrySidecar is the acceptance run for the observability
// layer: one throttled health execution must produce a sidecar record
// with a well-populated metric set (sampler, blackboard, runtime and
// daemon all publishing) and a non-empty classification journal.
func TestLabTelemetrySidecar(t *testing.T) {
	lab := NewLab()
	var buf bytes.Buffer
	sw := NewSidecarWriter(&buf)
	lab.Telemetry = sw.Record
	_, err := lab.Measure(RunSpec{
		App:          compiler.AppHealth,
		Workers:      FullThreads,
		SpinOnlyIdle: true,
		Throttle:     ThrottleDynamic,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}

	recs, err := decodeSidecar(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("sidecar has %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.App != compiler.AppHealth || rec.Workers != FullThreads {
		t.Errorf("record identity = %s/%d", rec.App, rec.Workers)
	}
	if len(rec.Metrics) < 10 {
		t.Errorf("sidecar carries %d distinct metrics, want >= 10", len(rec.Metrics))
	}
	// Every instrumented layer must be represented.
	byName := map[string]telemetry.Metric{}
	for _, m := range rec.Metrics {
		byName[m.Name] = m
	}
	for _, name := range []string{
		"rcr_sampler_ticks_total",
		"rcr_blackboard_writes_total",
		"qthreads_tasks_total",
		"qthreads_throttle_park_ns_total",
		"maestro_polls_total",
		"maestro_transitions_total",
	} {
		m, ok := byName[name]
		if !ok {
			t.Errorf("metric %q missing from sidecar", name)
			continue
		}
		if m.Value == 0 && name != "qthreads_throttle_park_ns_total" {
			t.Errorf("metric %q recorded nothing", name)
		}
	}
	// Health throttles (Table VI), so park time and transitions are real.
	if byName["maestro_transitions_total"].Value == 0 {
		t.Error("daemon never flipped the throttle on health")
	}
	if byName["qthreads_throttle_park_ns_total"].Value == 0 {
		t.Error("no worker ever parked in the throttled spin loop")
	}
	if len(rec.Journal) == 0 {
		t.Fatal("classification journal is empty")
	}
	sawEngage := false
	for _, d := range rec.Journal {
		if len(d.Power) != lab.Machine.Sockets || len(d.PowerLv) != len(d.Power) {
			t.Fatalf("journal entry has %d power readings for %d sockets", len(d.Power), lab.Machine.Sockets)
		}
		if d.Outcome == "enable" {
			sawEngage = true
		}
	}
	if !sawEngage {
		t.Error("journal records no enable decision despite activations")
	}
}

// TestLabTelemetryWithoutDaemon: an instrumented run without the
// MAESTRO daemon still publishes the sampler/blackboard/runtime
// metrics, but its journal stays empty — only the daemon classifies.
func TestLabTelemetryWithoutDaemon(t *testing.T) {
	lab := NewLab()
	var got []RunTelemetry
	lab.Telemetry = func(rt RunTelemetry) { got = append(got, rt) }
	_, err := lab.Measure(RunSpec{App: compiler.AppNQueens, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("sink called %d times, want 1", len(got))
	}
	if len(got[0].Metrics) < 10 {
		t.Errorf("got %d metrics without the daemon, want >= 10", len(got[0].Metrics))
	}
	if len(got[0].Journal) != 0 {
		t.Errorf("journal has %d entries without a daemon", len(got[0].Journal))
	}
}

func TestSidecarWriterConcurrent(t *testing.T) {
	var buf bytes.Buffer
	sw := NewSidecarWriter(&buf)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sw.Record(RunTelemetry{
				App:     "app",
				Workers: i,
				Metrics: []telemetry.Metric{{Name: "m", Kind: "counter", Value: float64(i)}},
			})
		}(i)
	}
	wg.Wait()
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := buf.String()
	recs, err := decodeSidecar(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 8 {
		t.Fatalf("got %d records, want 8", len(recs))
	}
	if !strings.Contains(raw, "\"metrics\"") {
		t.Error("records missing metrics field")
	}
}

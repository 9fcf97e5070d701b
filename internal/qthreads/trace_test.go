package qthreads

import (
	"bytes"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/machine"
)

func newTracedStack(t *testing.T, rec *Recorder, workers int, throttle bool) (*machine.Machine, *Runtime) {
	t.Helper()
	cfg := machine.M620()
	cfg.VirtualTimeLimit = 10 * time.Minute
	m, rt := newStackOn(t, cfg, Config{Workers: workers, Tracer: rec})
	if throttle {
		rt.SetThrottle(true, 2)
	}
	return m, rt
}

// tally counts the recorded events by kind.
func tally(rec *Recorder) map[EventKind]int {
	out := make(map[EventKind]int)
	for _, e := range rec.Events() {
		out[e.Kind]++
	}
	return out
}

func TestRecorderCapturesTaskLifecycle(t *testing.T) {
	rec := NewRecorder(0)
	_, rt := newTracedStack(t, rec, 8, false)
	const tasks = 40
	err := run(rt, func(tc *TC) {
		g := tc.NewGroup()
		for i := 0; i < tasks; i++ {
			g.Spawn(tc, func(tc *TC) { tc.Compute(1e6) })
		}
		g.Wait(tc)
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := tally(rec)
	// tasks + root.
	if counts[EvTaskStart] != tasks+1 || counts[EvTaskEnd] != tasks+1 {
		t.Errorf("task events = %d/%d, want %d", counts[EvTaskStart], counts[EvTaskEnd], tasks+1)
	}
	if counts[EvSteal] == 0 {
		t.Error("no steal events despite cross-socket spawning")
	}
	// Time stamps are monotone non-decreasing.
	events := rec.Events()
	for i := 1; i < len(events); i++ {
		if events[i].Time < events[i-1].Time {
			t.Fatalf("trace out of order at %d", i)
		}
	}
}

func TestRecorderCapturesThrottleEvents(t *testing.T) {
	rec := NewRecorder(0)
	_, rt := newTracedStack(t, rec, 16, true)
	err := run(rt, func(tc *TC) {
		g := tc.NewGroup()
		for i := 0; i < 200; i++ {
			g.Spawn(tc, func(tc *TC) { tc.Compute(2e6) })
		}
		g.Wait(tc)
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.SetThrottle(false, 8)
	counts := tally(rec)
	if counts[EvThrottleEnter] == 0 {
		t.Fatal("no throttle-enter events under an active throttle")
	}
	if counts[EvThrottleExit] != counts[EvThrottleEnter] {
		t.Errorf("throttle enter/exit unbalanced: %d vs %d",
			counts[EvThrottleEnter], counts[EvThrottleExit])
	}
}

func TestRecorderRingWraps(t *testing.T) {
	rec := NewRecorder(16)
	_, rt := newTracedStack(t, rec, 4, false)
	err := run(rt, func(tc *TC) {
		g := tc.NewGroup()
		for i := 0; i < 100; i++ { // far more events than 16 slots
			g.Spawn(tc, func(tc *TC) { tc.Compute(1e5) })
		}
		g.Wait(tc)
	})
	if err != nil {
		t.Fatal(err)
	}
	events := rec.Events()
	if len(events) != 16 {
		t.Fatalf("ring holds %d events, want 16", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].Time < events[i-1].Time {
			t.Fatalf("wrapped ring out of order at %d", i)
		}
	}
}

func TestRecorderWriteCSV(t *testing.T) {
	rec := NewRecorder(0)
	_, rt := newTracedStack(t, rec, 4, false)
	if err := run(rt, func(tc *TC) { tc.Compute(1e6) }); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "t_seconds,worker,event\n") {
		t.Errorf("CSV header wrong: %q", out[:40])
	}
	if !strings.Contains(out, "task-start") || !strings.Contains(out, "task-end") {
		t.Error("CSV missing task events")
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := []EventKind{EvTaskStart, EvTaskEnd, EvSteal, EvThrottleEnter, EvThrottleExit, EvPark, EvUnpark}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d has bad/duplicate name %q", int(k), s)
		}
		seen[s] = true
	}
	if EventKind(99).String() == "" {
		t.Error("unknown kind needs a representation")
	}
}

func TestTracingOffByDefault(t *testing.T) {
	// Just exercising the nil-tracer fast path under load.
	_, rt := newStack(t, 0)
	var n atomic.Int64
	err := run(rt, func(tc *TC) {
		g := tc.NewGroup()
		for i := 0; i < 50; i++ {
			g.Spawn(tc, func(tc *TC) { tc.Compute(1e5); n.Add(1) })
		}
		g.Wait(tc)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n.Load() != 50 {
		t.Errorf("ran %d tasks", n.Load())
	}
}

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
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	qcfg := DefaultConfig()
	qcfg.Workers = workers
	qcfg.Tracer = rec
	rt, err := New(m, qcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	if throttle {
		rt.SetThrottle(true, 2)
	}
	return m, rt
}

func TestRecorderCapturesTaskLifecycle(t *testing.T) {
	rec := NewRecorder(0)
	_, rt := newTracedStack(t, rec, 8, false)
	const tasks = 40
	err := rt.Run(func(tc *TC) {
		g := tc.NewGroup()
		for i := 0; i < tasks; i++ {
			g.Spawn(tc, func(tc *TC) { tc.Compute(1e6) })
		}
		g.Wait(tc)
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := rec.Counts()
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
	err := rt.Run(func(tc *TC) {
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
	counts := rec.Counts()
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
	err := rt.Run(func(tc *TC) {
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
	if err := rt.Run(func(tc *TC) { tc.Compute(1e6) }); err != nil {
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
	cfg := machine.M620()
	cfg.VirtualTimeLimit = 10 * time.Minute
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	rt, err := New(m, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	var n atomic.Int64
	err = rt.Run(func(tc *TC) {
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

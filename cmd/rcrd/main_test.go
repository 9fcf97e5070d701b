package main

import (
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rapl"
	"repro/internal/rcr"
	"repro/internal/resilience"
	"repro/internal/telemetry"
)

func TestServeAndQuery(t *testing.T) {
	dir := t.TempDir()
	sock := filepath.Join(dir, "rcrd.sock")
	statePath := filepath.Join(dir, "rcrd.state")
	done := make(chan error, 1)
	go func() {
		done <- serve(serveConfig{socket: sock, load: "nqueens", duration: 1500 * time.Millisecond, drainTimeout: time.Second, statePath: statePath})
	}()

	// Wait for the socket to appear, then query it repeatedly while the
	// background load runs.
	var snap rcr.Snapshot
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("daemon never answered")
		}
		if _, err := net.Dial("unix", sock); err != nil {
			time.Sleep(20 * time.Millisecond)
			continue
		}
		s, err := rcr.Query("unix", sock)
		if err != nil {
			time.Sleep(20 * time.Millisecond)
			continue
		}
		snap = s
		if len(snap.Sockets) == 2 && len(snap.Sockets[0].Meters) > 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	// The blackboard must carry the standard meters.
	names := map[string]bool{}
	for _, mv := range snap.Sockets[0].Meters {
		names[mv.Name] = true
	}
	for _, want := range []string{rcr.MeterEnergy, rcr.MeterTemperature, rcr.MeterMemConcurrency} {
		if !names[want] {
			t.Errorf("socket meters missing %q (have %v)", want, names)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}
	// The query path also prints; exercise it against a dead socket for
	// the error branch.
	if err := runQuery(sock, false); err == nil {
		t.Error("query against a stopped daemon succeeded")
	}
	// Shutdown must have left a decodable, fresh state snapshot with the
	// guard checkpoint and recorded history aboard.
	st, err := resilience.LoadState(statePath, restoreFreshness, time.Now())
	if err != nil {
		t.Fatalf("shutdown state snapshot: %v", err)
	}
	if len(st.Guard) == 0 {
		t.Error("shutdown state snapshot carries no guard checkpoint")
	}
	if len(st.History) == 0 {
		t.Error("shutdown state snapshot carries no history")
	}
}

// TestRestoreStateOutcomes is the restart half of the crash-safety
// contract at the command level: a fresh snapshot naming a quarantined
// domain restores (the restarted daemon keeps distrusting the sensor),
// while corrupt and stale files are rejected and the daemon cold-starts
// with a pristine guard. Each outcome must land in the journal.
func TestRestoreStateOutcomes(t *testing.T) {
	newSys := func() *core.System {
		sys, err := core.New(core.Options{Telemetry: true, RecordHistory: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sys.Close() })
		return sys
	}
	lastKind := func(sys *core.System) string {
		entries := sys.Journal().Entries()
		if len(entries) == 0 {
			return ""
		}
		return entries[len(entries)-1].Kind
	}
	writeState := func(path string, savedAt time.Time) {
		st := resilience.DaemonState{
			SavedAtUnixNano: savedAt.UnixNano(),
			Guard: []rapl.DomainCheckpoint{
				{State: rapl.GuardQuarantined, Faults: 5, Backoff: time.Second, RetryIn: 500 * time.Millisecond},
				{State: rapl.GuardSensing},
			},
		}
		if err := resilience.SaveState(path, st); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()

	t.Run("fresh", func(t *testing.T) {
		path := filepath.Join(dir, "fresh.state")
		writeState(path, time.Now())
		sys := newSys()
		restoreState(sys, path)
		cps := sys.Guard().Checkpoint()
		if len(cps) == 0 || cps[0].State != rapl.GuardQuarantined {
			t.Fatalf("domain 0 state after restore = %+v, want quarantined", cps)
		}
		if k := lastKind(sys); k != telemetry.KindStateRestored {
			t.Errorf("journal kind %q, want %q", k, telemetry.KindStateRestored)
		}
	})
	t.Run("corrupt", func(t *testing.T) {
		path := filepath.Join(dir, "corrupt.state")
		writeState(path, time.Now())
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)/2] ^= 0x40
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		sys := newSys()
		restoreState(sys, path)
		for i, cp := range sys.Guard().Checkpoint() {
			if cp.State != rapl.GuardSensing {
				t.Errorf("domain %d state %v after rejected restore, want pristine sensing", i, cp.State)
			}
		}
		if k := lastKind(sys); k != telemetry.KindStateRejected {
			t.Errorf("journal kind %q, want %q", k, telemetry.KindStateRejected)
		}
	})
	t.Run("stale", func(t *testing.T) {
		path := filepath.Join(dir, "stale.state")
		writeState(path, time.Now().Add(-2*restoreFreshness))
		sys := newSys()
		restoreState(sys, path)
		for i, cp := range sys.Guard().Checkpoint() {
			if cp.State != rapl.GuardSensing {
				t.Errorf("domain %d state %v after stale restore, want pristine sensing", i, cp.State)
			}
		}
		if k := lastKind(sys); k != telemetry.KindStateRejected {
			t.Errorf("journal kind %q, want %q", k, telemetry.KindStateRejected)
		}
	})
	t.Run("missing", func(t *testing.T) {
		sys := newSys()
		restoreState(sys, filepath.Join(dir, "never-written.state"))
		if k := lastKind(sys); k != "" {
			t.Errorf("journal kind %q after first boot, want no record", k)
		}
	})
}

func TestServeUnknownLoad(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "rcrd.sock")
	if err := serve(serveConfig{socket: sock, load: "not-a-benchmark", duration: 500 * time.Millisecond}); err == nil {
		t.Error("serve with unknown load succeeded")
	}
}

// TestServeCluster runs the fleet mode end to end: two shards with a
// skewed load mix under a binding global cap must both come up, stay
// healthy, and receive a headroom-skewed partition before shutdown.
func TestServeCluster(t *testing.T) {
	if err := serveCluster(clusterServeConfig{
		shards:   2,
		dir:      t.TempDir(),
		loads:    []string{"lulesh", "nqueens"},
		global:   120,
		duration: 1500 * time.Millisecond,
	}); err != nil {
		t.Fatalf("serveCluster: %v", err)
	}
}

func TestServeClusterUnknownLoad(t *testing.T) {
	if err := serveCluster(clusterServeConfig{
		shards:   1,
		dir:      t.TempDir(),
		loads:    []string{"not-a-benchmark"},
		duration: 400 * time.Millisecond,
	}); err == nil {
		t.Error("cluster mode with unknown load succeeded")
	}
}

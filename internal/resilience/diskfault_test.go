package resilience

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"sync/atomic"

	"repro/internal/machine"
	"repro/internal/telemetry"
)

// swapSaveFS installs fs as SaveState's filesystem seam for the test's
// duration. The disk-fault tests are serialized on this seam (none of
// them run in parallel), so a plain swap-and-restore is safe.
func swapSaveFS(t *testing.T, fs stateFS) {
	t.Helper()
	prev := saveFS
	saveFS = fs
	t.Cleanup(func() { saveFS = prev })
}

// seedSnapshot writes one good snapshot and returns its decoded form,
// so each fault test can prove the failed save left it untouched.
func seedSnapshot(t *testing.T, path string) DaemonState {
	t.Helper()
	st := DaemonState{SavedAtUnixNano: time.Now().UnixNano(), VirtualNow: 42 * time.Second}
	if err := SaveState(path, st); err != nil {
		t.Fatal(err)
	}
	got, err := LoadState(path, 0, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// requireIntact asserts the snapshot at path still loads and matches
// the seeded one — the atomic-rename contract after a failed save.
func requireIntact(t *testing.T, path string, want DaemonState) {
	t.Helper()
	got, err := LoadState(path, 0, time.Time{})
	if err != nil {
		t.Fatalf("previous snapshot no longer loads after the failed save: %v", err)
	}
	if got.VirtualNow != want.VirtualNow || got.SavedAtUnixNano != want.SavedAtUnixNano {
		t.Fatalf("previous snapshot changed: got %+v, want %+v", got, want)
	}
}

// TestSaveStateENOSPCCreate: no space for even the temp file. The save
// fails, surfaces ENOSPC, and the previous snapshot survives.
func TestSaveStateENOSPCCreate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rcrd.state")
	prev := seedSnapshot(t, path)
	fs := osStateFS()
	fs.createTemp = func(dir, pattern string) (*os.File, error) {
		return nil, &os.PathError{Op: "createtemp", Path: dir, Err: syscall.ENOSPC}
	}
	swapSaveFS(t, fs)
	err := SaveState(path, DaemonState{VirtualNow: 99 * time.Second})
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("want ENOSPC, got %v", err)
	}
	requireIntact(t, path, prev)
}

// TestSaveStateTornWrite: the disk fills mid-write, leaving a torn temp
// file. The save fails, the torn temp never replaces the snapshot, and
// no temp file lingers in the directory.
func TestSaveStateTornWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rcrd.state")
	prev := seedSnapshot(t, path)
	fs := osStateFS()
	fs.writeFile = func(f *os.File, b []byte) (int, error) {
		half := len(b) / 2
		if _, err := f.Write(b[:half]); err != nil {
			return 0, err
		}
		return half, &os.PathError{Op: "write", Path: f.Name(), Err: syscall.ENOSPC}
	}
	swapSaveFS(t, fs)
	if err := SaveState(path, DaemonState{VirtualNow: 99 * time.Second}); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("want ENOSPC, got %v", err)
	}
	requireIntact(t, path, prev)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("torn temp file %q lingers after the failed save", e.Name())
		}
	}
}

// TestSaveStateShortWriteNoError: a short write with a nil error (legal
// for an io.Writer gone wrong) must still abort before the rename.
func TestSaveStateShortWriteNoError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rcrd.state")
	prev := seedSnapshot(t, path)
	fs := osStateFS()
	fs.writeFile = func(f *os.File, b []byte) (int, error) {
		half := len(b) / 2
		_, _ = f.Write(b[:half])
		return half, nil
	}
	swapSaveFS(t, fs)
	if err := SaveState(path, DaemonState{VirtualNow: 99 * time.Second}); err == nil {
		t.Fatal("short write saved successfully")
	}
	requireIntact(t, path, prev)
}

// TestSaveStateFsyncFailure: the write succeeds but fsync refuses —
// the bytes may not be durable, so the rename must not happen.
func TestSaveStateFsyncFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rcrd.state")
	prev := seedSnapshot(t, path)
	fs := osStateFS()
	fs.syncFile = func(f *os.File) error {
		return &os.PathError{Op: "fsync", Path: f.Name(), Err: syscall.EIO}
	}
	swapSaveFS(t, fs)
	if err := SaveState(path, DaemonState{VirtualNow: 99 * time.Second}); !errors.Is(err, syscall.EIO) {
		t.Fatalf("want EIO, got %v", err)
	}
	requireIntact(t, path, prev)
}

// TestSaveStateRenameFailure: everything written and synced, but the
// rename itself fails — the old snapshot must still be the one served.
func TestSaveStateRenameFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rcrd.state")
	prev := seedSnapshot(t, path)
	fs := osStateFS()
	fs.rename = func(oldpath, newpath string) error {
		return &os.PathError{Op: "rename", Path: newpath, Err: syscall.EIO}
	}
	swapSaveFS(t, fs)
	if err := SaveState(path, DaemonState{VirtualNow: 99 * time.Second}); !errors.Is(err, syscall.EIO) {
		t.Fatalf("want EIO, got %v", err)
	}
	requireIntact(t, path, prev)
}

// TestKeeperDiskFaultBackoff drives the keeper against a disk that
// fails every save: each failure is journaled state_save_failed (not
// fatal — the keeper keeps running), the previous snapshot stays
// intact throughout, and the keeper backs off instead of hot-looping —
// strictly fewer saves are attempted than ticks elapse. When the disk
// heals, checkpointing resumes and the backoff resets.
func TestKeeperDiskFaultBackoff(t *testing.T) {
	m, err := machine.New(machine.M620())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	path := filepath.Join(t.TempDir(), "rcrd.state")
	prev := seedSnapshot(t, path)

	var broken atomic.Bool
	broken.Store(true)
	var attempts atomic.Int64
	fs := osStateFS()
	fs.createTemp = func(dir, pattern string) (*os.File, error) {
		attempts.Add(1)
		if broken.Load() {
			return nil, &os.PathError{Op: "createtemp", Path: dir, Err: syscall.ENOSPC}
		}
		return os.CreateTemp(dir, pattern)
	}
	swapSaveFS(t, fs)

	reg := telemetry.NewRegistry()
	jr := telemetry.NewJournal(64, 1)
	period := 20 * time.Millisecond
	k, err := StartKeeper(m, path, period, func() DaemonState {
		return DaemonState{VirtualNow: m.Now()}
	}, reg, jr)
	if err != nil {
		t.Fatal(err)
	}

	// ~40 keeper periods of virtual time while the disk is full. The
	// virtual clock only advances while this core computes — it stays
	// enrolled until the keeper stops — so feed it one period at a time
	// with a host-side pause between: the writer goroutine gets to drain
	// each tick's kick before the next fires, instead of 40 ticks
	// coalescing into one save attempt.
	ctx, err := m.Enroll(0)
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Release()
	for i := 0; i < 40; i++ {
		ctx.Compute(float64(m.Config().BaseFreq) * 0.02) // 20 ms of virtual time
		time.Sleep(2 * time.Millisecond)
	}
	failedAttempts := attempts.Load()
	if failedAttempts < 2 {
		t.Fatal("keeper never retried after the first failure")
	}
	// Backoff: 40 ticks elapsed but the doubling skip must have kept
	// the attempt count well under one per tick.
	if failedAttempts > 20 {
		t.Errorf("%d save attempts across ~40 ticks: keeper is hot-looping, not backing off", failedAttempts)
	}
	if k.LastErr() == nil {
		t.Error("keeper reports no error while the disk is full")
	}
	k.mu.Lock()
	streak := k.failStreak
	k.mu.Unlock()
	if streak == 0 {
		t.Error("keeper reports no failure streak while the disk is full")
	}
	requireIntact(t, path, prev)
	found := false
	for _, d := range jr.Entries() {
		if d.Kind == telemetry.KindStateSaveFailed {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no %s journal record for the failed saves", telemetry.KindStateSaveFailed)
	}
	if got := reg.Counter("resilience_keeper_errors_total").Value(); got == 0 {
		t.Error("error counter never incremented")
	}

	// Heal the disk: the next attempted save succeeds, the backoff
	// resets, and fresh snapshots flow again.
	broken.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	for k.saves.Value() == 0 && time.Now().Before(deadline) {
		ctx.Compute(float64(m.Config().BaseFreq) * 0.02)
		time.Sleep(2 * time.Millisecond)
	}
	if k.saves.Value() == 0 {
		t.Fatal("keeper never recovered after the disk healed")
	}
	if err := k.Stop(); err != nil {
		t.Fatalf("final save failed on a healed disk: %v", err)
	}
	if k.failStreak != 0 {
		t.Errorf("failure streak %d after recovery, want 0", k.failStreak)
	}
	st, err := LoadState(path, 0, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if st.VirtualNow == prev.VirtualNow {
		t.Error("no fresh snapshot landed after recovery")
	}
}

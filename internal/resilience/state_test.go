package resilience

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/rapl"
	"repro/internal/rcr"
	"repro/internal/telemetry"
)

func testState() DaemonState {
	return DaemonState{
		SavedAtUnixNano: 1_700_000_000_000_000_000,
		VirtualNow:      42 * time.Second,
		Guard: []rapl.DomainCheckpoint{
			{State: rapl.GuardQuarantined, Faults: 5, Acc: 123.5, Backoff: 20 * time.Millisecond, RetryIn: 6 * time.Millisecond},
			{State: rapl.GuardSensing, Acc: 88.25},
		},
		History: []rcr.HistoryPoint{
			{Time: time.Second, NodePower: 140, SocketPower: []float64{70, 70}},
			{Time: 2 * time.Second, NodePower: 150, SocketPower: []float64{80, 70}},
		},
	}
}

// TestStateRoundTrip: encode → decode is lossless.
func TestStateRoundTrip(t *testing.T) {
	st := testState()
	b, err := EncodeState(st)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeState(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.SavedAtUnixNano != st.SavedAtUnixNano || got.VirtualNow != st.VirtualNow {
		t.Fatalf("timestamps did not round-trip: %+v", got)
	}
	if len(got.Guard) != 2 || got.Guard[0] != st.Guard[0] || got.Guard[1] != st.Guard[1] {
		t.Fatalf("guard checkpoint did not round-trip: %+v", got.Guard)
	}
	if len(got.History) != 2 || got.History[1].NodePower != 150 {
		t.Fatalf("history did not round-trip: %+v", got.History)
	}
}

// TestDecodeStateRejectsDamage: truncations, bad magic, bad version, and
// payload bit-flips all surface as ErrStateCorrupt — never a panic,
// never a partially-filled state.
func TestDecodeStateRejectsDamage(t *testing.T) {
	full, err := EncodeState(testState())
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(full); n++ {
		if _, err := DecodeState(full[:n]); !errors.Is(err, ErrStateCorrupt) {
			t.Fatalf("truncation to %d bytes: %v, want ErrStateCorrupt", n, err)
		}
	}
	buf := make([]byte, len(full))
	for i := range full {
		for bit := 0; bit < 8; bit++ {
			copy(buf, full)
			buf[i] ^= 1 << bit
			if _, err := DecodeState(buf); !errors.Is(err, ErrStateCorrupt) {
				t.Fatalf("bit flip at byte %d bit %d accepted: %v", i, bit, err)
			}
		}
	}
}

// TestDecodeStateBoundsAllocation: a header claiming a giant payload is
// rejected before allocation.
func TestDecodeStateBoundsAllocation(t *testing.T) {
	full, err := EncodeState(DaemonState{})
	if err != nil {
		t.Fatal(err)
	}
	full[10] = 0xff // length field low byte
	full[11] = 0xff
	full[12] = 0xff
	full[13] = 0xff
	if _, err := DecodeState(full); !errors.Is(err, ErrStateCorrupt) {
		t.Fatalf("oversized length claim accepted: %v", err)
	}
}

// TestSaveLoadState exercises the on-disk path including staleness.
func TestSaveLoadState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rcrd.state")
	st := testState()
	if err := SaveState(path, st); err != nil {
		t.Fatal(err)
	}
	savedAt := time.Unix(0, st.SavedAtUnixNano)

	// Fresh: accepted.
	got, err := LoadState(path, time.Hour, savedAt.Add(30*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if got.VirtualNow != st.VirtualNow {
		t.Fatalf("loaded state %+v", got)
	}
	// Stale: rejected with the staleness error, not corrupt.
	if _, err := LoadState(path, time.Hour, savedAt.Add(2*time.Hour)); !errors.Is(err, ErrStateStale) {
		t.Fatalf("stale file loaded: %v", err)
	}
	// From the future (clock went backwards across the restart): also
	// untrustworthy.
	if _, err := LoadState(path, time.Hour, savedAt.Add(-time.Minute)); !errors.Is(err, ErrStateStale) {
		t.Fatalf("future-dated file loaded: %v", err)
	}
	// maxAge <= 0 disables the bound.
	if _, err := LoadState(path, 0, savedAt.Add(1000*time.Hour)); err != nil {
		t.Fatalf("unbounded load failed: %v", err)
	}
	// Missing file: os.ErrNotExist, so callers can branch on cold start.
	if _, err := LoadState(path+".missing", time.Hour, savedAt); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: %v", err)
	}
	// Torn file on disk: corrupt.
	b, _ := os.ReadFile(path)
	if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadState(path, time.Hour, savedAt); !errors.Is(err, ErrStateCorrupt) {
		t.Fatalf("torn file loaded: %v", err)
	}
}

// TestSaveStateAtomicReplace: a save over an existing file either keeps
// the old content or installs the new — the temp file never lingers.
func TestSaveStateAtomicReplace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rcrd.state")
	st := testState()
	if err := SaveState(path, st); err != nil {
		t.Fatal(err)
	}
	st.VirtualNow = 99 * time.Second
	if err := SaveState(path, st); err != nil {
		t.Fatal(err)
	}
	got, err := LoadState(path, 0, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if got.VirtualNow != 99*time.Second {
		t.Fatalf("second save not visible: %+v", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory holds %v, want only the state file", names)
	}
}

// TestKeeperPeriodicAndFinal: the keeper writes on the virtual-time
// cadence and once more at Stop, and the file restores losslessly.
func TestKeeperPeriodicAndFinal(t *testing.T) {
	m, err := machine.New(machine.M620())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	path := filepath.Join(t.TempDir(), "rcrd.state")
	reg := telemetry.NewRegistry()
	k, err := StartKeeper(m, path, 50*time.Millisecond, func() DaemonState {
		return DaemonState{VirtualNow: m.Now()}
	}, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Drive virtual time past several keeper periods by computing on a
	// core; the write goroutine is host-asynchronous, so poll briefly
	// for the first save to land. The core stays enrolled in host code
	// until the keeper stops, which keeps the clock where the compute
	// left it: a keeper-only clock would otherwise run ahead as fast as
	// the host steps it.
	ctx, err := m.Enroll(0)
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Release()
	ctx.Compute(float64(m.Config().BaseFreq) * 0.3) // 300ms of virtual time
	deadline := time.Now().Add(5 * time.Second)
	for k.saves.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if k.saves.Value() == 0 {
		t.Fatal("keeper never saved")
	}
	if err := k.Stop(); err != nil {
		t.Fatal(err)
	}
	finals := k.saves.Value()
	if err := k.Stop(); err != nil { // idempotent
		t.Fatal(err)
	}
	if k.saves.Value() != finals {
		t.Error("second Stop saved again")
	}
	st, err := LoadState(path, time.Hour, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if st.VirtualNow < 0 {
		t.Fatalf("implausible restored state %+v", st)
	}
}

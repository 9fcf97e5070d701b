package rcr

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/wire/wiretest"
)

func TestCapWriteRoundTrip(t *testing.T) {
	cases := []CapWrite{
		{Fence: 1, Leader: 1, Seq: 1, Lease: time.Second},
		{Fence: 7, Leader: 2, Seq: 9000, Lease: 50 * time.Millisecond, HasCap: true, Cap: 62.5},
		{Fence: 1<<53 - 1, Leader: 4, Seq: 1 << 40, Release: true},
	}
	for _, w := range cases {
		enc := AppendCapWrite(nil, w)
		got, err := DecodeCapWrite(enc)
		if err != nil {
			t.Fatalf("decode %+v: %v", w, err)
		}
		if got != w {
			t.Fatalf("round trip: got %+v want %+v", got, w)
		}
		if re := AppendCapWrite(nil, got); !bytes.Equal(re, enc) {
			t.Fatalf("re-encode differs:\n in %x\nout %x", enc, re)
		}
	}
}

func TestCapWriteDecodeRejects(t *testing.T) {
	good := AppendCapWrite(nil, CapWrite{Fence: 3, Leader: 1, Seq: 2, Lease: time.Second, HasCap: true, Cap: 80})
	mutate := func(f func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		f(b)
		return b
	}
	bad := map[string][]byte{
		"short":          good[:len(good)-1],
		"long":           append(append([]byte(nil), good...), 0),
		"magic":          mutate(func(b []byte) { b[0] = 'X' }),
		"unknown flag":   mutate(func(b []byte) { b[4] |= 0x80 }),
		"zero leader":    mutate(func(b []byte) { copy(b[13:17], []byte{0, 0, 0, 0}) }),
		"zero fence":     mutate(func(b []byte) { copy(b[5:13], make([]byte, 8)) }),
		"zero lease":     mutate(func(b []byte) { copy(b[17:25], make([]byte, 8)) }),
		"nan cap":        mutate(func(b []byte) { copy(b[33:], []byte{0, 0, 0, 0, 0, 0, 0xf8, 0x7f}) }),
		"zero seq":       mutate(func(b []byte) { copy(b[25:33], make([]byte, 8)) }),
		"capless bits":   mutate(func(b []byte) { b[4] &^= capwFlagHasCap }),
		"release + cap":  mutate(func(b []byte) { b[4] |= capwFlagRelease }),
		"negative lease": mutate(func(b []byte) { b[24] = 0x80 }),
	}
	for name, payload := range bad {
		if _, err := DecodeCapWrite(payload); err == nil {
			t.Errorf("%s: decode accepted %x", name, payload)
		}
	}
}

func TestCapAckRoundTrip(t *testing.T) {
	cases := []CapAck{
		{Status: CapApplied, Fence: 2, Holder: 1, Expiry: time.Second},
		{Status: CapFenceRejected, Fence: 9, Holder: 3, Expiry: 2 * time.Second, HasApplied: true, Applied: 55},
		{Status: CapApplyFailed, Fence: 1, Holder: 2},
	}
	for _, a := range cases {
		enc := AppendCapAck(nil, a)
		got, err := DecodeCapAck(enc)
		if err != nil {
			t.Fatalf("decode %+v: %v", a, err)
		}
		if got != a {
			t.Fatalf("round trip: got %+v want %+v", got, a)
		}
	}
	if _, err := DecodeCapAck(AppendCapAck(nil, CapAck{Status: 3})); err == nil {
		t.Fatal("unknown status accepted")
	}
}

// fenceTestClock is a settable host clock.
type fenceTestClock struct{ now time.Duration }

func (c *fenceTestClock) Now() time.Duration { return c.now }

func TestFenceGuardSemantics(t *testing.T) {
	clk := &fenceTestClock{}
	var applied []float64
	g := NewFenceGuard(clk.Now, func(cap float64, fence uint64) error {
		applied = append(applied, cap)
		return nil
	})
	reg := telemetry.NewRegistry()
	g.Instrument(reg)
	j := telemetry.NewJournal(64, 1)
	g.Journal(j)

	ttl := 100 * time.Millisecond
	// First write wins the virgin guard.
	ack := g.Offer(CapWrite{Fence: 1, Leader: 1, Seq: 1, Lease: ttl, HasCap: true, Cap: 60})
	if ack.Status != CapApplied || ack.Fence != 1 || ack.Holder != 1 || !ack.HasApplied || ack.Applied != 60 {
		t.Fatalf("initial grant: %+v", ack)
	}
	// A rival with the same fence is rejected; with a higher fence too,
	// while the lease is live.
	if ack := g.Offer(CapWrite{Fence: 1, Leader: 2, Seq: 1, Lease: ttl}); ack.Status != CapFenceRejected {
		t.Fatalf("same-fence rival accepted: %+v", ack)
	}
	if ack := g.Offer(CapWrite{Fence: 2, Leader: 2, Seq: 1, Lease: ttl}); ack.Status != CapFenceRejected {
		t.Fatalf("live-lease takeover accepted: %+v", ack)
	}
	// The holder renews at the same fence.
	clk.now = 50 * time.Millisecond
	if ack := g.Offer(CapWrite{Fence: 1, Leader: 1, Seq: 2, Lease: ttl}); ack.Status != CapApplied {
		t.Fatalf("renewal rejected: %+v", ack)
	}
	// A delayed duplicate — or any write at or below the last accepted
	// seq — is rejected: it cannot roll the shard back.
	if ack := g.Offer(CapWrite{Fence: 1, Leader: 1, Seq: 2, Lease: ttl, HasCap: true, Cap: 90}); ack.Status != CapFenceRejected {
		t.Fatalf("stale-seq replay accepted: %+v", ack)
	}
	// After expiry a higher fence from a new holder wins; the old
	// holder's stale fence is then rejected forever.
	clk.now = 50*time.Millisecond + ttl + time.Millisecond
	ack = g.Offer(CapWrite{Fence: 2, Leader: 2, Seq: 1, Lease: ttl, HasCap: true, Cap: 45})
	if ack.Status != CapApplied || ack.Holder != 2 {
		t.Fatalf("post-expiry takeover rejected: %+v", ack)
	}
	late := g.Offer(CapWrite{Fence: 1, Leader: 1, Seq: 3, Lease: ttl, HasCap: true, Cap: 90})
	if late.Status != CapFenceRejected {
		t.Fatalf("stale write accepted after takeover: %+v", late)
	}
	if late.Fence != 2 || late.Holder != 2 || late.Applied != 45 {
		t.Fatalf("rejection ack does not report authoritative state: %+v", late)
	}
	if want := []float64{60, 45}; len(applied) != 2 || applied[0] != want[0] || applied[1] != want[1] {
		t.Fatalf("applied caps %v, want %v", applied, want)
	}
	// Release lets a successor in without waiting out the TTL.
	if ack := g.Offer(CapWrite{Fence: 2, Leader: 2, Seq: 2, Release: true}); ack.Status != CapApplied {
		t.Fatalf("release rejected: %+v", ack)
	}
	if ack := g.Offer(CapWrite{Fence: 3, Leader: 3, Seq: 1, Lease: ttl}); ack.Status != CapApplied {
		t.Fatalf("post-release takeover rejected: %+v", ack)
	}
	if n := reg.Counter("cluster_fence_rejects_total").Value(); n != 4 {
		t.Fatalf("fence rejects counter %d, want 4", n)
	}
	rejJournaled := 0
	for _, d := range j.Entries() {
		if d.Kind == telemetry.KindFenceRejected {
			rejJournaled++
		}
	}
	if rejJournaled != 4 {
		t.Fatalf("fence_rejected journal records %d, want 4", rejJournaled)
	}
}

func TestFenceGuardMirrorsLeaseMeters(t *testing.T) {
	clk := &fenceTestClock{now: time.Second}
	g := NewFenceGuard(clk.Now, func(float64, uint64) error { return nil })
	bb, err := NewBlackboard(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	g.Bind(bb)
	g.Offer(CapWrite{Fence: 5, Leader: 2, Seq: 1, Lease: time.Second, HasCap: true, Cap: 72})
	check := func(name string, want float64) {
		t.Helper()
		m, ok := bb.System(name)
		if !ok {
			t.Fatalf("meter %s missing", name)
		}
		if m.Value != want {
			t.Fatalf("meter %s = %v, want %v", name, m.Value, want)
		}
	}
	check(MeterFence, 5)
	check(MeterLeaseHolder, 2)
	check(MeterLeaseExpiry, 2) // 1 s now + 1 s lease
	check(MeterFencedCap, 72)

	// Rebinding a fresh blackboard (shard restart) republishes state.
	bb2, err := NewBlackboard(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	g.Bind(bb2)
	if m, ok := bb2.System(MeterFence); !ok || m.Value != 5 {
		t.Fatalf("fence not republished after rebind: %v %v", m, ok)
	}
}

// TestWriteCapOverWire drives the CAP op end-to-end: client → server →
// guard → ack.
func TestWriteCapOverWire(t *testing.T) {
	dir := t.TempDir()
	socket := filepath.Join(dir, "rcrd.sock")
	ln, err := net.Listen("unix", socket)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := NewBlackboard(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	clk := &fenceTestClock{}
	g := NewFenceGuard(clk.Now, func(float64, uint64) error { return nil })
	g.Bind(bb)
	srv := NewServer(bb, clk, ln)
	srv.Fence = g
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	defer func() { srv.Close(); <-done }()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	ack, err := WriteCap(ctx, "unix", socket, CapWrite{Fence: 1, Leader: 1, Seq: 1, Lease: time.Second, HasCap: true, Cap: 64})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Status != CapApplied || ack.Applied != 64 {
		t.Fatalf("ack %+v", ack)
	}
	ack, err = WriteCap(ctx, "unix", socket, CapWrite{Fence: 1, Leader: 2, Seq: 1, Lease: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Status != CapFenceRejected || ack.Holder != 1 {
		t.Fatalf("rival ack %+v", ack)
	}

	// A server without a guard rejects the op outright.
	ln2, err := net.Listen("unix", filepath.Join(dir, "bare.sock"))
	if err != nil {
		t.Fatal(err)
	}
	bare := NewServer(bb, clk, ln2)
	done2 := make(chan error, 1)
	go func() { done2 <- bare.Serve() }()
	defer func() { bare.Close(); <-done2 }()
	if _, err := WriteCap(ctx, "unix", filepath.Join(dir, "bare.sock"),
		CapWrite{Fence: 1, Leader: 1, Seq: 1, Lease: time.Second}); err == nil {
		t.Fatal("guardless server accepted a cap write")
	}
}

// FuzzDecodeCapWrite holds the four fenced-write decoders — CAPW, CAPA
// and their membership carriers MEMW, MEMA, all parsed straight off a
// socket — to the canonical-codec property on arbitrary payloads, then
// checks that any accepted cap write is safe to offer to a guard.
func FuzzDecodeCapWrite(f *testing.F) {
	leaseOnly := CapWrite{Fence: 1, Leader: 1, Seq: 1, Lease: time.Second}
	capped := CapWrite{Fence: 2, Leader: 3, Seq: 7, Lease: time.Millisecond, HasCap: true, Cap: 60}
	f.Add([]byte{})
	f.Add([]byte("CAPW"))
	f.Add(AppendCapWrite(nil, leaseOnly))
	f.Add(AppendCapWrite(nil, capped))
	f.Add(AppendCapWrite(nil, CapWrite{Fence: 9, Leader: 2, Seq: 3, Release: true}))
	ack := CapAck{Status: CapFenceRejected, Fence: 9, Holder: 3, Expiry: time.Second, HasApplied: true, Applied: 55}
	f.Add(AppendCapAck(nil, CapAck{Status: CapApplied, Fence: 2, Holder: 1}))
	f.Add(AppendCapAck(nil, ack))
	f.Add(AppendMemWrite(nil, MemWrite{Write: leaseOnly}))
	f.Add(AppendMemWrite(nil, MemWrite{Write: capped, Epoch: 4, Frame: []byte("CLSM-opaque")}))
	f.Add(AppendMemAck(nil, MemAck{Ack: CapAck{Status: CapApplied, Fence: 2, Holder: 1}}))
	f.Add(AppendMemAck(nil, MemAck{Ack: ack, MemFence: 9, MemEpoch: 4, Frame: []byte("stored")}))
	f.Fuzz(func(t *testing.T, data []byte) {
		wiretest.Canonical(t, data, func(b []byte) ([]byte, error) {
			a, err := DecodeCapAck(b)
			return AppendCapAck(nil, a), err
		})
		wiretest.Canonical(t, data, func(b []byte) ([]byte, error) {
			w, err := DecodeMemWrite(b)
			return AppendMemWrite(nil, w), err
		})
		wiretest.Canonical(t, data, func(b []byte) ([]byte, error) {
			a, err := DecodeMemAck(b)
			return AppendMemAck(nil, a), err
		})
		if !wiretest.Canonical(t, data, func(b []byte) ([]byte, error) {
			w, err := DecodeCapWrite(b)
			return AppendCapWrite(nil, w), err
		}) {
			return
		}
		w, _ := DecodeCapWrite(data)
		// Any decoded write must round-trip through a guard without
		// panicking, and the ack must itself round-trip on the wire.
		clk := &fenceTestClock{}
		g := NewFenceGuard(clk.Now, func(cap float64, fence uint64) error {
			if cap <= 0 {
				return fmt.Errorf("non-positive cap %v reached apply", cap)
			}
			return nil
		})
		ack := g.Offer(w)
		enc := AppendCapAck(nil, ack)
		back, err := DecodeCapAck(enc)
		if err != nil {
			t.Fatalf("ack %+v does not decode: %v", ack, err)
		}
		if back != ack {
			t.Fatalf("ack round trip: got %+v want %+v", back, ack)
		}
	})
}

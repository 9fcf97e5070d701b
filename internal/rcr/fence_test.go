package rcr

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"reflect"
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
	// A cap write travels as an epoch-0 MEMW.
	for _, w := range cases {
		enc := AppendMemWrite(nil, MemWrite{Write: w})
		got, err := DecodeMemWrite(enc)
		if err != nil {
			t.Fatalf("decode %+v: %v", w, err)
		}
		if got.Write != w || got.Epoch != 0 || got.Frame != nil {
			t.Fatalf("round trip: got %+v want %+v", got, w)
		}
		if re := AppendMemWrite(nil, got); !bytes.Equal(re, enc) {
			t.Fatalf("re-encode differs:\n in %x\nout %x", enc, re)
		}
	}
}

func TestCapWriteDecodeRejects(t *testing.T) {
	good := AppendMemWrite(nil, MemWrite{Write: CapWrite{Fence: 3, Leader: 1, Seq: 2, Lease: time.Second, HasCap: true, Cap: 80}})
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
		if _, err := DecodeMemWrite(payload); err == nil {
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
	// A cap ack travels as the prefix of an epoch-0 MEMA.
	for _, a := range cases {
		enc := AppendMemAck(nil, MemAck{Ack: a})
		got, err := DecodeMemAck(enc)
		if err != nil {
			t.Fatalf("decode %+v: %v", a, err)
		}
		if got.Ack != a || got.MemFence != 0 || got.MemEpoch != 0 || got.Frame != nil {
			t.Fatalf("round trip: got %+v want %+v", got, a)
		}
	}
	if _, err := DecodeMemAck(AppendMemAck(nil, MemAck{Ack: CapAck{Status: 3}})); err == nil {
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

// TestFenceGuardMirrorIsOneWrite: the guard mirrors its lease state as
// one write, all of its meters at one publish version.
func TestFenceGuardMirrorIsOneWrite(t *testing.T) {
	clk := &fenceTestClock{now: time.Second}
	g := NewFenceGuard(clk.Now, func(float64, uint64) error { return nil })
	bb, err := NewBlackboard(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	g.Bind(bb)
	g.Offer(CapWrite{Fence: 5, Leader: 2, Seq: 1, Lease: time.Second, HasCap: true, Cap: 72})
	ver := bb.pub.Load()
	if ver != 2 {
		t.Fatalf("bind and one accepted cap published %d versions, want 2", ver)
	}
	for _, name := range []string{MeterFence, MeterLeaseHolder, MeterLeaseExpiry, MeterFencedCap} {
		if _, _, v := bb.handle(bb.systemScope(), name).load(); v != ver {
			t.Errorf("meter %s at version %d, want %d", name, v, ver)
		}
	}
}

// TestWriteCapOverWire drives a cap write end-to-end over the MEM op:
// client → server → guard → ack.
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

// FuzzDecodeCapWrite holds the two fenced-write decoders — MEMW and
// MEMA, whose epoch-0 forms carry every cap write and its ack, parsed
// straight off a socket — to the canonical-codec property on arbitrary
// payloads, then checks that any accepted write is safe to offer to a
// guard.
func FuzzDecodeCapWrite(f *testing.F) {
	leaseOnly := CapWrite{Fence: 1, Leader: 1, Seq: 1, Lease: time.Second}
	capped := CapWrite{Fence: 2, Leader: 3, Seq: 7, Lease: time.Millisecond, HasCap: true, Cap: 60}
	f.Add([]byte{})
	f.Add([]byte("CAPW"))
	f.Add(AppendMemWrite(nil, MemWrite{Write: leaseOnly}))
	f.Add(AppendMemWrite(nil, MemWrite{Write: capped}))
	f.Add(AppendMemWrite(nil, MemWrite{Write: CapWrite{Fence: 9, Leader: 2, Seq: 3, Release: true}}))
	f.Add(AppendMemWrite(nil, MemWrite{Write: capped, Epoch: 4, Frame: []byte("CLSM-opaque")}))
	ack := CapAck{Status: CapFenceRejected, Fence: 9, Holder: 3, Expiry: time.Second, HasApplied: true, Applied: 55}
	f.Add(AppendMemAck(nil, MemAck{Ack: CapAck{Status: CapApplied, Fence: 2, Holder: 1}}))
	f.Add(AppendMemAck(nil, MemAck{Ack: ack}))
	f.Add(AppendMemAck(nil, MemAck{Ack: ack, MemFence: 9, MemEpoch: 4, Frame: []byte("stored")}))
	// A bare CAPW or CAPA is a MEMW or MEMA cut before its tail.
	f.Add(AppendCapWrite(nil, capped))
	f.Add(AppendCapAck(nil, ack))
	f.Fuzz(func(t *testing.T, data []byte) {
		wiretest.Canonical(t, data, func(b []byte) ([]byte, error) {
			a, err := DecodeMemAck(b)
			return AppendMemAck(nil, a), err
		})
		if !wiretest.Canonical(t, data, func(b []byte) ([]byte, error) {
			w, err := DecodeMemWrite(b)
			return AppendMemWrite(nil, w), err
		}) {
			return
		}
		w, _ := DecodeMemWrite(data)
		// Any decoded write must round-trip through a guard without
		// panicking, and the ack must itself round-trip on the wire.
		clk := &fenceTestClock{}
		g := NewFenceGuard(clk.Now, func(cap float64, fence uint64) error {
			if cap <= 0 {
				return fmt.Errorf("non-positive cap %v reached apply", cap)
			}
			return nil
		})
		ack := g.OfferMem(w)
		enc := AppendMemAck(nil, ack)
		back, err := DecodeMemAck(enc)
		if err != nil {
			t.Fatalf("ack %+v does not decode: %v", ack, err)
		}
		if !reflect.DeepEqual(back, ack) {
			t.Fatalf("ack round trip: got %+v want %+v", back, ack)
		}
	})
}

// TestFenceGuardAppliedFencesNeverDecrease drives one guard through
// seeded schedules of every kind of write it can meet — stale fences,
// an equal-fence rival, takeovers while the lease is live and after it
// expired, releases, stale-seq replays, membership commits, power
// cycles — and checks that the fences it hands to apply never
// decrease. That is what lets a cap controller apply a guard's writes
// without a fence check of its own.
func TestFenceGuardAppliedFencesNeverDecrease(t *testing.T) {
	const ttl = 100 * time.Millisecond
	kinds := []string{"stale fence", "equal-fence rival", "takeover", "renewal", "stale seq", "release", "membership", "power cycle"}
	covered := map[string]int{}
	for seed := int64(1); seed <= 64; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clk := &fenceTestClock{}
		var applied []uint64
		g := NewFenceGuard(clk.Now, func(_ float64, fence uint64) error {
			applied = append(applied, fence)
			return nil
		})
		var seq, epoch uint64
		for step := 0; step < 200; step++ {
			clk.now += time.Duration(rng.Intn(40)) * time.Millisecond
			st := g.State()
			seq++
			rival := st.Holder%3 + 1 // a leader other than the holder
			w := CapWrite{Fence: st.Fence, Leader: st.Holder, Seq: seq, Lease: ttl, HasCap: true, Cap: float64(50 + rng.Intn(100))}
			if w.Fence == 0 { // a virgin guard: the first write opens fence 1
				w.Fence, w.Leader = 1, 1
			}
			kind := kinds[rng.Intn(len(kinds))]
			switch kind {
			case "stale fence":
				if st.Fence < 2 {
					kind = "renewal"
					break
				}
				w.Fence = 1 + uint64(rng.Int63n(int64(st.Fence-1)))
				w.Leader = uint32(1 + rng.Intn(3))
			case "equal-fence rival":
				w.Leader = rival
			case "takeover":
				w.Fence = st.Fence + 1 + uint64(rng.Intn(3))
				w.Leader = rival
				if clk.now < st.Expiry {
					kind = "takeover, lease live"
				} else {
					kind = "takeover, lease expired"
				}
			case "stale seq":
				w.Seq = 1
			case "release":
				w.Release, w.HasCap, w.Lease = true, false, 0
			case "membership":
				epoch++
				g.OfferMem(MemWrite{Write: w, Epoch: epoch, Frame: []byte{byte(epoch)}})
			case "power cycle":
				g.PowerCycle()
			}
			if kind != "membership" && kind != "power cycle" {
				if g.Offer(w).Status == CapApplied {
					kind += ", applied"
				}
			}
			covered[kind]++
			if n := len(applied); n > 1 && applied[n-1] < applied[n-2] {
				t.Fatalf("seed %d step %d (%s): applied fence %d after %d", seed, step, kind, applied[n-1], applied[n-2])
			}
		}
	}
	for _, kind := range []string{
		"stale fence", "equal-fence rival", "takeover, lease live",
		"takeover, lease expired, applied", "renewal, applied", "stale seq",
		"release, applied", "membership", "power cycle",
	} {
		if covered[kind] == 0 {
			t.Errorf("no schedule exercised %q; covered: %v", kind, covered)
		}
	}
}

package rcr

import (
	"bytes"
	"testing"
	"time"
)

// TestMemWriteAckRoundTrip: MEMW/MEMA encode→decode is the identity and
// re-encodes to the same bytes.
func TestMemWriteAckRoundTrip(t *testing.T) {
	w := MemWrite{
		Write: CapWrite{Fence: 3, Leader: 2, Seq: 7, Lease: time.Second, HasCap: true, Cap: 120},
		Epoch: 9,
		Frame: []byte("CLSM-opaque-frame-bytes"),
	}
	enc := AppendMemWrite(nil, w)
	got, err := DecodeMemWrite(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Write != w.Write || got.Epoch != w.Epoch || !bytes.Equal(got.Frame, w.Frame) {
		t.Fatalf("round trip: got %+v want %+v", got, w)
	}
	if re := AppendMemWrite(nil, got); !bytes.Equal(re, enc) {
		t.Fatal("re-encode differs")
	}

	a := MemAck{
		Ack:      CapAck{Status: CapApplied, Fence: 3, Holder: 2, Expiry: time.Second, HasApplied: true, Applied: 120},
		MemFence: 3, MemEpoch: 9, Frame: []byte("stored"),
	}
	aenc := AppendMemAck(nil, a)
	aGot, err := DecodeMemAck(aenc)
	if err != nil {
		t.Fatal(err)
	}
	if aGot.Ack != a.Ack || aGot.MemFence != a.MemFence || aGot.MemEpoch != a.MemEpoch || !bytes.Equal(aGot.Frame, a.Frame) {
		t.Fatalf("ack round trip: got %+v want %+v", aGot, a)
	}
}

// TestMemWireRejects: epoch/frame consistency is enforced both ways.
func TestMemWireRejects(t *testing.T) {
	base := CapWrite{Fence: 1, Leader: 1, Seq: 1, Lease: time.Second}
	frameNoEpoch := AppendMemWrite(nil, MemWrite{Write: base, Epoch: 0, Frame: []byte("x")})
	if _, err := DecodeMemWrite(frameNoEpoch); err == nil {
		t.Error("frame without epoch accepted")
	}
	epochNoFrame := AppendMemWrite(nil, MemWrite{Write: base, Epoch: 5})
	if _, err := DecodeMemWrite(epochNoFrame); err == nil {
		t.Error("epoch without frame accepted")
	}
	good := AppendMemWrite(nil, MemWrite{Write: base, Epoch: 5, Frame: []byte("f")})
	if _, err := DecodeMemWrite(good[:len(good)-1]); err == nil {
		t.Error("truncated frame accepted")
	}
	if _, err := DecodeMemWrite(append(append([]byte(nil), good...), 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
	ackMemNoEpoch := AppendMemAck(nil, MemAck{Ack: CapAck{Status: CapApplied, Fence: 1, Holder: 1}, MemFence: 2})
	if _, err := DecodeMemAck(ackMemNoEpoch); err == nil {
		t.Error("ack with mem fence but no epoch accepted")
	}
}

// TestMemSupersedes: membership records order by (fence, epoch) — a
// successor's first commit supersedes a deposed leader's higher epochs,
// and a replay never supersedes.
func TestMemSupersedes(t *testing.T) {
	for _, c := range []struct {
		name                               string
		fence, epoch, heldFence, heldEpoch uint64
		want                               bool
	}{
		{"first record over nothing", 2, 10, 0, 0, true},
		{"replay of the held pair", 2, 10, 2, 10, false},
		{"same fence, next epoch", 2, 11, 2, 10, true},
		{"same fence, older epoch", 2, 9, 2, 10, false},
		{"deposed leader's higher epoch under a lower fence", 1, 99, 2, 10, false},
		{"successor's lower epoch under a higher fence", 3, 2, 2, 10, true},
	} {
		if got := MemSupersedes(c.fence, c.epoch, c.heldFence, c.heldEpoch); got != c.want {
			t.Errorf("%s: MemSupersedes(%d, %d, %d, %d) = %v, want %v",
				c.name, c.fence, c.epoch, c.heldFence, c.heldEpoch, got, c.want)
		}
	}
}

// TestOfferMemStoresUnderFenceRules: an accepted carrier stores the
// frame; a fence-rejected one stores nothing; (fence, epoch) ordering
// refuses a deposed leader's stale record even on an accepted renewal;
// and every ack returns the stored record (a probe doubles as a fetch).
func TestOfferMemStoresUnderFenceRules(t *testing.T) {
	clk := &fenceTestClock{}
	g := NewFenceGuard(clk.Now, nil)
	ttl := 100 * time.Millisecond

	ack := g.OfferMem(MemWrite{
		Write: CapWrite{Fence: 2, Leader: 1, Seq: 1, Lease: ttl},
		Epoch: 4, Frame: []byte("epoch4"),
	})
	if ack.Ack.Status != CapApplied || ack.MemFence != 2 || ack.MemEpoch != 4 || string(ack.Frame) != "epoch4" {
		t.Fatalf("first commit: %+v", ack)
	}

	// A rival's rejected write must not store its frame.
	ack = g.OfferMem(MemWrite{
		Write: CapWrite{Fence: 1, Leader: 2, Seq: 1, Lease: ttl},
		Epoch: 99, Frame: []byte("stale-leader"),
	})
	if ack.Ack.Status != CapFenceRejected || ack.MemEpoch != 4 || string(ack.Frame) != "epoch4" {
		t.Fatalf("rejected write stored membership: %+v", ack)
	}

	// The holder's renewal with an older epoch is accepted as a lease
	// write but its stale record is refused.
	ack = g.OfferMem(MemWrite{
		Write: CapWrite{Fence: 2, Leader: 1, Seq: 2, Lease: ttl},
		Epoch: 3, Frame: []byte("epoch3"),
	})
	if ack.Ack.Status != CapApplied || ack.MemEpoch != 4 {
		t.Fatalf("stale epoch overwrote the stored record: %+v", ack)
	}

	// A pure probe (epoch 0) still fetches.
	ack = g.OfferMem(MemWrite{Write: CapWrite{Fence: 2, Leader: 1, Seq: 3, Lease: ttl}})
	if ack.MemEpoch != 4 || string(ack.Frame) != "epoch4" {
		t.Fatalf("probe fetch: %+v", ack)
	}

	// A successor's first commit supersedes regardless of epoch number.
	clk.now = 2 * ttl
	ack = g.OfferMem(MemWrite{
		Write: CapWrite{Fence: 5, Leader: 3, Seq: 1, Lease: ttl},
		Epoch: 2, Frame: []byte("successor"),
	})
	if ack.Ack.Status != CapApplied || ack.MemFence != 5 || ack.MemEpoch != 2 || string(ack.Frame) != "successor" {
		t.Fatalf("successor commit: %+v", ack)
	}
	if g.memFence != 5 || g.memEpoch != 2 || string(g.memFrame) != "successor" {
		t.Fatalf("stored membership = (%d, %d, %q)", g.memFence, g.memEpoch, g.memFrame)
	}
}

// TestPowerCyclePreservesRatchetClearsCap: a power cycle wipes the
// applied-cap ledger (the enforcement registers reset when the node
// loses power) but keeps the fence high-water mark and the committed
// membership frame (the on-disk state a daemon restores) — so a
// rejoining incarnation reports no committed cap, yet still refuses a
// fence its previous life refused.
func TestPowerCyclePreservesRatchetClearsCap(t *testing.T) {
	clk := &fenceTestClock{}
	g := NewFenceGuard(clk.Now, func(float64, uint64) error { return nil })
	ttl := 100 * time.Millisecond

	ack := g.OfferMem(MemWrite{
		Write: CapWrite{Fence: 4, Leader: 1, Seq: 1, Lease: ttl, HasCap: true, Cap: 130},
		Epoch: 7, Frame: []byte("committed"),
	})
	if ack.Ack.Status != CapApplied || !ack.Ack.HasApplied {
		t.Fatalf("setup write: %+v", ack)
	}

	g.PowerCycle()

	st := g.State()
	if st.HasApplied || st.Applied != 0 {
		t.Fatalf("cap ledger survived the power cycle: %+v", st)
	}
	if st.Fence != 4 {
		t.Fatalf("fence ratchet lost: %+v", st)
	}
	if g.memFence != 4 || g.memEpoch != 7 || string(g.memFrame) != "committed" {
		t.Fatalf("membership lost in power cycle: (%d, %d, %q)", g.memFence, g.memEpoch, g.memFrame)
	}
	// The ratchet still fences: a lower fence stays rejected after the
	// cycle, even with the lease long expired.
	clk.now = time.Hour
	if ack := g.Offer(CapWrite{Fence: 3, Leader: 2, Seq: 1, Lease: ttl}); ack.Status != CapFenceRejected {
		t.Fatalf("power cycle weakened the fence ratchet: %+v", ack)
	}
	// The next life's first accepted write rebuilds the ledger.
	if ack := g.Offer(CapWrite{Fence: 5, Leader: 2, Seq: 1, Lease: ttl, HasCap: true, Cap: 10}); ack.Status != CapApplied || ack.Applied != 10 {
		t.Fatalf("post-cycle write: %+v", ack)
	}
}

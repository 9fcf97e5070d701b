package rcr

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"
)

// TestDeltaHeartbeatIsFixedSize: a tick where nothing moved must cost a
// constant 33 bytes regardless of board size — the whole point of the
// delta stream.
func TestDeltaHeartbeatIsFixedSize(t *testing.T) {
	bb, _ := NewBlackboard(4, 16)
	populate(bb, time.Second)
	var f DeltaFrame
	bb.CollectDelta(bb.pub.Load(), &f)
	if !f.Heartbeat() {
		t.Fatal("delta since current version is not a heartbeat")
	}
	enc := AppendDeltaFrame(nil, &f)
	if len(enc) != 33 {
		t.Errorf("heartbeat frame is %d bytes, want 33", len(enc))
	}
}

// TestDeltaCostProportionalToChanges: k changed meters encode O(k)
// values plus the bitmap, not the whole board.
func TestDeltaCostProportionalToChanges(t *testing.T) {
	bb, _ := NewBlackboard(2, 8)
	populate(bb, time.Second)
	basis := bb.pub.Load()
	bb.SetSocket(0, MeterPower, 72, 2*time.Second)
	bb.SetSocket(1, MeterPower, 69, 2*time.Second)
	var f DeltaFrame
	bb.CollectDelta(basis, &f)
	if got := len(f.Vals); got != 2 {
		t.Fatalf("delta carries %d slots, want 2", got)
	}
	want := 33 + 4 + (len(*bb.slots.Load())+7)/8 + 2*16
	if enc := AppendDeltaFrame(nil, &f); len(enc) != want {
		t.Errorf("2-change delta is %d bytes, want %d", len(enc), want)
	}
}

// TestFrameRoundTrips: full and delta frames must decode back to the
// collected form and re-encode bit-exactly.
func TestFrameRoundTrips(t *testing.T) {
	bb, _ := NewBlackboard(2, 2)
	populate(bb, time.Second)

	var full FullFrame
	bb.CollectFull(&full)
	full.Now = time.Second
	full.Flags = FlagInitial
	encF := AppendFullFrame(nil, &full)
	var gotF FullFrame
	if err := DecodeFullFrame(encF, &gotF); err != nil {
		t.Fatalf("DecodeFullFrame: %v", err)
	}
	if !reflect.DeepEqual(full, gotF) {
		t.Errorf("full frame round-trip mismatch:\n in  %+v\n out %+v", full, gotF)
	}
	if re := AppendFullFrame(nil, &gotF); !bytes.Equal(re, encF) {
		t.Error("full frame re-encode is not bit-exact")
	}

	basis := bb.pub.Load()
	bb.SetCore(1, MeterDutyCycle, 0.75, 2*time.Second)
	var delta DeltaFrame
	bb.CollectDelta(basis, &delta)
	delta.Now = 2 * time.Second
	encD := AppendDeltaFrame(nil, &delta)
	var gotD DeltaFrame
	if err := DecodeDeltaFrame(encD, &gotD); err != nil {
		t.Fatalf("DecodeDeltaFrame: %v", err)
	}
	if !reflect.DeepEqual(delta, gotD) {
		t.Errorf("delta frame round-trip mismatch:\n in  %+v\n out %+v", delta, gotD)
	}
	if re := AppendDeltaFrame(nil, &gotD); !bytes.Equal(re, encD) {
		t.Error("delta frame re-encode is not bit-exact")
	}
}

// TestFrameDecodeTruncatedNeverPanics mirrors the snapshot truncation
// test for both frame kinds.
func TestFrameDecodeTruncatedNeverPanics(t *testing.T) {
	bb, _ := NewBlackboard(2, 2)
	populate(bb, time.Second)
	var full FullFrame
	bb.CollectFull(&full)
	encF := AppendFullFrame(nil, &full)
	for n := 0; n < len(encF); n++ {
		var f FullFrame
		if err := DecodeFullFrame(encF[:n], &f); err == nil {
			t.Fatalf("full frame truncated to %d of %d decoded", n, len(encF))
		}
	}
	bb.SetSystem(MeterPower, 150, 2*time.Second)
	var delta DeltaFrame
	bb.CollectDelta(full.Ver, &delta)
	encD := AppendDeltaFrame(nil, &delta)
	for n := 0; n < len(encD); n++ {
		var f DeltaFrame
		if err := DecodeDeltaFrame(encD[:n], &f); err == nil {
			t.Fatalf("delta frame truncated to %d of %d decoded", n, len(encD))
		}
	}
}

// TestDeltaDecodeRejectsBitmapOverhang: bits set past nSlots would let a
// frame smuggle extra values; the decoder must reject them.
func TestDeltaDecodeRejectsBitmapOverhang(t *testing.T) {
	f := DeltaFrame{
		Gen: 1, From: 1, To: 2, Now: time.Second,
		NSlots: 3,
		Bitmap: []byte{0b0000_0001},
		Vals:   []float64{7},
		Upds:   []int64{9},
	}
	good := AppendDeltaFrame(nil, &f)
	var out DeltaFrame
	if err := DecodeDeltaFrame(good, &out); err != nil {
		t.Fatalf("valid frame rejected: %v", err)
	}
	// Set bit 3 (beyond the 3 declared slots) and append its value pair.
	f.Bitmap = []byte{0b0000_1001}
	f.Vals = append(f.Vals, 8)
	f.Upds = append(f.Upds, 10)
	bad := AppendDeltaFrame(nil, &f)
	if err := DecodeDeltaFrame(bad, &out); err == nil {
		t.Error("bitmap overhang accepted")
	}
}

// TestSubStateFollowsBoard: the canonical subscriber flow — one full
// frame, then deltas — must reproduce Blackboard.Snapshot exactly,
// including meter ordering.
func TestSubStateFollowsBoard(t *testing.T) {
	bb, _ := NewBlackboard(2, 2)
	populate(bb, time.Second)

	var st SubState
	var full FullFrame
	bb.CollectFull(&full)
	full.Now = time.Second
	if err := st.ApplyFull(&full); err != nil {
		t.Fatal(err)
	}
	if got, want := st.Snapshot(), snapshotOf(bb, time.Second); !reflect.DeepEqual(got, want) {
		t.Fatalf("after full frame:\n got  %+v\n want %+v", got, want)
	}

	basis := full.Ver
	for tick := 1; tick <= 3; tick++ {
		now := time.Duration(tick) * 2 * time.Second
		bb.SetSocket(0, MeterPower, 70+float64(tick), now)
		bb.SetCore(3, MeterDutyCycle, 0.1*float64(tick), now)
		var delta DeltaFrame
		bb.CollectDelta(basis, &delta)
		delta.Now = now
		basis = delta.To
		if err := st.ApplyDelta(&delta); err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		if got, want := st.Snapshot(), snapshotOf(bb, now); !reflect.DeepEqual(got, want) {
			t.Fatalf("tick %d:\n got  %+v\n want %+v", tick, got, want)
		}
	}

	// A heartbeat only refreshes Now.
	var hb DeltaFrame
	bb.CollectDelta(basis, &hb)
	hb.Now = 100 * time.Second
	if err := st.ApplyDelta(&hb); err != nil {
		t.Fatal(err)
	}
	if st.Now != 100*time.Second {
		t.Errorf("heartbeat did not refresh Now: %v", st.Now)
	}
}

// TestSubStateGapDetection: deltas that do not connect must surface
// ErrDeltaGap and leave the state unchanged.
func TestSubStateGapDetection(t *testing.T) {
	bb, _ := NewBlackboard(1, 1)
	bb.SetSocket(0, MeterPower, 70, time.Second)

	var st SubState
	bad := DeltaFrame{Gen: 0, From: 5, To: 6, NSlots: 1, Bitmap: []byte{1}, Vals: []float64{1}, Upds: []int64{1}}
	if err := st.ApplyDelta(&bad); !errors.Is(err, ErrDeltaGap) {
		t.Errorf("delta before any full frame: %v, want ErrDeltaGap", err)
	}

	var full FullFrame
	bb.CollectFull(&full)
	if err := st.ApplyFull(&full); err != nil {
		t.Fatal(err)
	}

	// Basis newer than held state: frames were dropped.
	gap := DeltaFrame{Gen: st.Gen, From: st.Ver + 3, To: st.Ver + 4,
		NSlots: 1, Bitmap: []byte{1}, Vals: []float64{9}, Upds: []int64{9}}
	if err := st.ApplyDelta(&gap); !errors.Is(err, ErrDeltaGap) {
		t.Errorf("version gap: %v, want ErrDeltaGap", err)
	}

	// Schema generation mismatch.
	wrongGen := DeltaFrame{Gen: st.Gen + 1, From: st.Ver, To: st.Ver + 1,
		NSlots: 1, Bitmap: []byte{1}, Vals: []float64{9}, Upds: []int64{9}}
	if err := st.ApplyDelta(&wrongGen); !errors.Is(err, ErrDeltaGap) {
		t.Errorf("gen mismatch: %v, want ErrDeltaGap", err)
	}
}

// TestSubStateFullDeltaOverlap: a resync full frame may observe writes a
// concurrently collected delta did not; the stale delta (To <= held Ver)
// must be a no-op, and the next real delta must connect.
func TestSubStateFullDeltaOverlap(t *testing.T) {
	bb, _ := NewBlackboard(1, 1)
	bb.SetSocket(0, MeterPower, 70, time.Second)
	basis := uint64(0)

	var delta DeltaFrame
	bb.CollectDelta(basis, &delta) // covers the first write
	bb.SetSocket(0, MeterPower, 71, 2*time.Second)
	var full FullFrame
	bb.CollectFull(&full) // observes the second write too

	var st SubState
	if err := st.ApplyFull(&full); err != nil {
		t.Fatal(err)
	}
	if err := st.ApplyDelta(&delta); err != nil {
		t.Fatalf("stale delta after newer full: %v", err)
	}
	if m := st.Snapshot().Sockets[0].Meters[0]; m.Value != 71 {
		t.Errorf("stale delta regressed the state to %v", m.Value)
	}

	// The chain continues from the delta's To even though the state holds
	// a newer version: the next delta overlaps and must apply.
	bb.SetSocket(0, MeterPower, 72, 3*time.Second)
	var next DeltaFrame
	bb.CollectDelta(delta.To, &next)
	if err := st.ApplyDelta(&next); err != nil {
		t.Fatalf("overlapping delta: %v", err)
	}
	if m := st.Snapshot().Sockets[0].Meters[0]; m.Value != 72 {
		t.Errorf("state = %v after overlapping delta, want 72", m.Value)
	}
}

// TestCollectDeltaNeverLosesClaimedWrites: To is the version that had
// completed before the scan. Under the writers' lock no write sits between
// claiming a version and storing it, so a write that lands after the
// collection is above To and goes out in the next delta, not skipped
// forever. Simulated here by collecting before the write.
func TestCollectDeltaNeverLosesClaimedWrites(t *testing.T) {
	bb, _ := NewBlackboard(1, 1)
	bb.SetSocket(0, MeterPower, 70, time.Second)
	var f DeltaFrame
	bb.CollectDelta(0, &f)
	if f.To != bb.pub.Load() {
		t.Fatalf("To = %d, version = %d", f.To, bb.pub.Load())
	}
	// Write after the collection: the next delta from f.To must carry it.
	bb.SetSocket(0, MeterPower, 71, 2*time.Second)
	var next DeltaFrame
	bb.CollectDelta(f.To, &next)
	if next.Heartbeat() || len(next.Vals) != 1 || next.Vals[0] != 71 {
		t.Errorf("follow-up delta = %+v, want one slot with 71", next)
	}
}

// TestCollectDeltaKeepsWritesBehindTheScan: a write that lands on a slot
// the scan has already passed, while a newer write on a later slot is
// seen, must still reach the subscriber. A To taken from the highest
// version observed sits above the passed write, and no later delta from
// that To carries it. The scan is held at the middle slot by leaving its
// seqlock odd, as a store in progress does.
func TestCollectDeltaKeepsWritesBehindTheScan(t *testing.T) {
	bb, _ := NewBlackboard(2, 8)
	populate(bb, time.Second)
	var full FullFrame
	var st SubState
	bb.CollectFull(&full)
	if err := st.ApplyFull(&full); err != nil {
		t.Fatal(err)
	}
	slots := *bb.slots.Load()
	first, last := 0, len(slots)-1
	for !st.present[last] {
		last--
	}
	held := slots[(first+last)/2]
	held.seq.Add(1)
	var f DeltaFrame
	scanned := make(chan struct{})
	go func() {
		bb.CollectDelta(st.Ver, &f)
		close(scanned)
	}()
	time.Sleep(20 * time.Millisecond) // the scan is past the first slot, spinning on the held one
	setSlot := func(i int, v float64) {
		bb.set(i%bb.nScopes, bb.schema.Load().names[i/bb.nScopes], v, 2*time.Second)
	}
	setSlot(first, -1)
	setSlot(last, -2)
	held.seq.Add(1)
	<-scanned
	if err := st.ApplyDelta(&f); err != nil {
		t.Fatal(err)
	}
	bb.CollectDelta(st.Ver, &f)
	if err := st.ApplyDelta(&f); err != nil {
		t.Fatal(err)
	}
	if st.vals[first] != -1 || st.vals[last] != -2 {
		t.Errorf("subscriber holds %v and %v after two deltas, want -1 and -2", st.vals[first], st.vals[last])
	}
}

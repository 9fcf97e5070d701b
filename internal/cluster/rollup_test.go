package cluster

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/wire/wiretest"
)

func testFrame() ClusterFrame {
	return ClusterFrame{
		Now:    1500 * time.Millisecond,
		Budget: 400,
		Shards: []ShardRecord{
			{ID: 0, Epoch: 1, Ver: 42, Healthy: true, Power: 96.5, Headroom: 0.8, Cap: 120},
			{ID: 1, Epoch: 3, Ver: 7, Healthy: false, Power: 0, Headroom: 0, Cap: 10},
			{ID: 5, Epoch: 1, Ver: 900, Healthy: true, Power: 130.25, Headroom: 0.125, Cap: 130},
		},
	}
}

func TestClusterFrameRoundTrip(t *testing.T) {
	f := testFrame()
	enc := AppendClusterFrame(nil, &f)
	var got ClusterFrame
	if err := DecodeClusterFrame(enc, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f, got) {
		t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", f, got)
	}
	// Canonical: re-encoding the decode reproduces the bytes.
	if re := AppendClusterFrame(nil, &got); !bytes.Equal(re, enc) {
		t.Fatal("re-encode is not bit-identical")
	}
	// Empty fleet is a valid frame too.
	empty := ClusterFrame{Now: time.Second, Budget: 100}
	enc = AppendClusterFrame(nil, &empty)
	var back ClusterFrame
	if err := DecodeClusterFrame(enc, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Shards) != 0 || back.Budget != 100 {
		t.Fatalf("empty frame decoded to %+v", back)
	}
}

func TestDecodeClusterFrameRejectsCorruption(t *testing.T) {
	base := testFrame()
	mutate := func(name string, fn func(f *ClusterFrame)) {
		f := testFrame()
		f.Shards = append([]ShardRecord(nil), base.Shards...)
		fn(&f)
		enc := AppendClusterFrame(nil, &f)
		var got ClusterFrame
		if err := DecodeClusterFrame(enc, &got); err == nil {
			t.Errorf("%s: corrupt frame accepted", name)
		}
	}
	mutate("NaN budget", func(f *ClusterFrame) { f.Budget = math.NaN() })
	mutate("negative budget", func(f *ClusterFrame) { f.Budget = -1 })
	mutate("negative power", func(f *ClusterFrame) { f.Shards[0].Power = -3 })
	mutate("inf cap", func(f *ClusterFrame) { f.Shards[1].Cap = math.Inf(1) })
	mutate("headroom above 1", func(f *ClusterFrame) { f.Shards[2].Headroom = 1.5 })
	mutate("NaN headroom", func(f *ClusterFrame) { f.Shards[0].Headroom = math.NaN() })
	mutate("duplicate id", func(f *ClusterFrame) { f.Shards[1].ID = f.Shards[0].ID })
	mutate("unsorted ids", func(f *ClusterFrame) { f.Shards[0].ID = 9 })

	f := testFrame()
	enc := AppendClusterFrame(nil, &f)
	var got ClusterFrame
	if err := DecodeClusterFrame(append(enc, 0), &got); err == nil {
		t.Error("trailing byte accepted")
	}
	if err := DecodeClusterFrame(enc[:len(enc)-1], &got); err == nil {
		t.Error("truncated frame accepted")
	}
	bad := append([]byte(nil), enc...)
	bad[0] = 'X'
	if err := DecodeClusterFrame(bad, &got); err == nil {
		t.Error("bad magic accepted")
	}
	// Unknown flag bit in shard 0's record.
	bad = append([]byte(nil), enc...)
	bad[rollupHeaderSize+2+4+8] |= 0x80
	if err := DecodeClusterFrame(bad, &got); err == nil {
		t.Error("unknown flag bit accepted")
	}
	// Implausible shard count with no records behind it.
	hdr := AppendClusterFrame(nil, &ClusterFrame{})
	hdr[len(hdr)-2], hdr[len(hdr)-1] = 0xff, 0xff
	if err := DecodeClusterFrame(hdr, &got); err == nil {
		t.Error("implausible shard count accepted")
	}
}

// TestClusterStateReplayProtection pins the anti-poison guarantee: a
// replayed frame from before a shard restart (older epoch) or a stale
// duplicate (same epoch, non-advancing version) never overwrites newer
// state.
func TestClusterStateReplayProtection(t *testing.T) {
	cs := NewClusterState()

	fresh := ClusterFrame{Now: time.Second, Budget: 300, Shards: []ShardRecord{
		{ID: 0, Epoch: 2, Ver: 10, Healthy: true, Power: 90, Headroom: 0.5, Cap: 100},
		{ID: 1, Epoch: 1, Ver: 50, Healthy: true, Power: 80, Headroom: 0.2, Cap: 90},
	}}
	if got := cs.Apply(&fresh); got != 2 {
		t.Fatalf("fresh frame applied %d records, want 2", got)
	}

	// Replay of an older incarnation of shard 0 plus a stale version of
	// shard 1: both skipped, neither merged.
	replay := ClusterFrame{Now: 500 * time.Millisecond, Budget: 300, Shards: []ShardRecord{
		{ID: 0, Epoch: 1, Ver: 999, Healthy: true, Power: 55, Headroom: 0.9, Cap: 40},
		{ID: 1, Epoch: 1, Ver: 50, Healthy: false, Power: 1, Headroom: 0, Cap: 5},
	}}
	if got := cs.Apply(&replay); got != 0 {
		t.Fatalf("replayed frame applied %d records, want 0", got)
	}
	if cs.Regressed != 1 || cs.Replayed != 1 {
		t.Errorf("regressed %d replayed %d, want 1 and 1", cs.Regressed, cs.Replayed)
	}
	if rec, _ := cs.Shard(0); rec.Power != 90 || rec.Epoch != 2 {
		t.Errorf("shard 0 poisoned by old-epoch replay: %+v", rec)
	}
	if rec, _ := cs.Shard(1); !rec.Healthy || rec.Power != 80 {
		t.Errorf("shard 1 poisoned by stale duplicate: %+v", rec)
	}
	if cs.Now() != time.Second {
		t.Errorf("frame time moved backwards to %v", cs.Now())
	}

	// A genuine restart (newer epoch) resets the version space.
	restart := ClusterFrame{Now: 2 * time.Second, Budget: 300, Shards: []ShardRecord{
		{ID: 1, Epoch: 2, Ver: 1, Healthy: true, Power: 20, Headroom: 0.7, Cap: 90},
	}}
	if got := cs.Apply(&restart); got != 1 {
		t.Fatalf("restart frame applied %d records, want 1", got)
	}
	if rec, _ := cs.Shard(1); rec.Epoch != 2 || rec.Power != 20 {
		t.Errorf("restart epoch not accepted: %+v", rec)
	}
	if _, ok := cs.Shard(7); ok {
		t.Error("unknown shard id reported present")
	}
}

// FuzzDecodeClusterFrame holds the roll-up decoder to the
// canonical-codec property on arbitrary payloads; any payload it
// accepts must also survive ClusterState application without corrupting
// replay protection.
func FuzzDecodeClusterFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(rollupMagic[:])
	frame := testFrame()
	enc := AppendClusterFrame(nil, &frame)
	f.Add(enc)
	f.Add(enc[:len(enc)/2])
	f.Add(append(append([]byte(nil), enc...), 0))
	f.Add(AppendClusterFrame(nil, &ClusterFrame{Budget: 1}))
	// A replay pair: newer state followed by an older-epoch record.
	old := ClusterFrame{Budget: 10, Shards: []ShardRecord{{ID: 3, Epoch: 1, Ver: 99, Cap: 10}}}
	f.Add(AppendClusterFrame(nil, &old))
	f.Fuzz(func(t *testing.T, data []byte) {
		// The frame is still warm from a seed, as a receiver's is from
		// the frame before.
		var fr ClusterFrame
		if err := DecodeClusterFrame(enc, &fr); err != nil {
			t.Fatal(err)
		}
		recode := func(b []byte) ([]byte, error) {
			err := DecodeClusterFrame(b, &fr)
			return AppendClusterFrame(nil, &fr), err
		}
		if !wiretest.Canonical(t, data, recode) {
			return
		}
		if _, err := recode(data); err != nil {
			t.Fatal(err)
		}
		// Feeding an accepted frame twice must count every record of the
		// second pass as replayed or regressed — never double-apply.
		cs := NewClusterState()
		first := cs.Apply(&fr)
		if first != len(fr.Shards) {
			t.Fatalf("first apply accepted %d of %d records", first, len(fr.Shards))
		}
		if again := cs.Apply(&fr); again != 0 {
			t.Fatalf("identical frame re-applied %d records", again)
		}
		if cs.Replayed+cs.Regressed != uint64(len(fr.Shards)) {
			t.Fatalf("replay accounting lost records: replayed %d regressed %d of %d",
				cs.Replayed, cs.Regressed, len(fr.Shards))
		}
	})
}

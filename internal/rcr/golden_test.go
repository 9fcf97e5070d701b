package rcr

import (
	"testing"
	"time"

	"repro/internal/wire/wiretest"
)

// TestGoldenFrames holds one representative frame of every kind this
// package puts on a wire to testdata/frames.golden — the bytes the
// encoders produced for these fixtures before the codecs moved onto
// internal/wire: not a byte moved, and each golden frame decodes to its
// fixture.
func TestGoldenFrames(t *testing.T) {
	const sec = time.Second
	g := wiretest.Golden(t, "testdata/frames.golden")

	snap := Snapshot{
		Now:    3 * sec,
		System: []MeterValue{{"heartbeat", 42, 3 * sec}, {"power", 141.7, 3 * sec}},
		Sockets: []DomainSnap{
			{Meters: []MeterValue{{"energy", 6860.5, 3 * sec}},
				Cores: [][]MeterValue{{{"dutycycle", 0.25, sec}}, {}}},
			{Meters: []MeterValue{{"memconcurrency", 17, 2 * sec}},
				Cores: [][]MeterValue{{}, {{"temperature", 55, sec}}}},
		},
	}
	wiretest.Frame(t, g, "rcr1", snap, AppendSnapshot(nil, snap), DecodeSnapshot)

	// Two names over 1 + 2 + 2×2 scopes: 14 slots, two bitmap bytes.
	full := FullFrame{
		Gen: 2, Ver: 9, Now: 3 * sec, Flags: FlagInitial, Sockets: 2, PerSock: 2,
		Names: []string{"power", "energy"}, NSlots: 14,
		Bitmap: []byte{0b0000_0011, 0b0010_0001},
		Vals:   []float64{141.7, 71.25, 6860.5, 0.5},
		Upds:   []int64{int64(3 * sec), int64(3 * sec), int64(2 * sec), int64(sec)},
	}
	wiretest.Frame(t, g, "rcrf-initial", full, AppendFullFrame(nil, &full), wiretest.Into(DecodeFullFrame))
	delta := DeltaFrame{
		Gen: 2, From: 9, To: 12, Now: 4 * sec, NSlots: 14,
		Bitmap: []byte{0b0000_0010, 0b0010_0000},
		Vals:   []float64{72.5, 0.75},
		Upds:   []int64{int64(4 * sec), int64(4 * sec)},
	}
	wiretest.Frame(t, g, "rcrd-changes", delta, AppendDeltaFrame(nil, &delta), wiretest.Into(DecodeDeltaFrame))
	heartbeat := DeltaFrame{Gen: 2, From: 12, To: 12, Now: 5 * sec}
	wiretest.Frame(t, g, "rcrd-heartbeat", heartbeat, AppendDeltaFrame(nil, &heartbeat), wiretest.Into(DecodeDeltaFrame))
	if n := len(g["rcrd-heartbeat"]); n != 33 {
		t.Errorf("golden heartbeat is %d bytes, want 33", n)
	}

	capped := CapWrite{Fence: 7, Leader: 2, Seq: 9000, Lease: 50 * time.Millisecond, HasCap: true, Cap: 62.5}
	leaseOnly := CapWrite{Fence: 1, Leader: 1, Seq: 1, Lease: sec}
	release := CapWrite{Fence: 1<<53 - 1, Leader: 4, Seq: 1 << 40, Release: true}
	for name, w := range map[string]CapWrite{"capw-cap": capped, "capw-lease-only": leaseOnly, "capw-release": release} {
		wiretest.Frame(t, g, name, w, AppendCapWrite(nil, w), DecodeCapWrite)
	}
	applied := CapAck{Status: CapFenceRejected, Fence: 9, Holder: 3, Expiry: 2 * sec, HasApplied: true, Applied: 55}
	bare := CapAck{Status: CapApplied, Fence: 2, Holder: 1, Expiry: sec}
	for name, a := range map[string]CapAck{"capa-applied": applied, "capa-bare": bare} {
		wiretest.Frame(t, g, name, a, AppendCapAck(nil, a), DecodeCapAck)
	}
	for name, w := range map[string]MemWrite{
		"memw-epoch0": {Write: leaseOnly},
		"memw-frame":  {Write: capped, Epoch: 9, Frame: []byte("CLSM-opaque-frame-bytes")},
	} {
		wiretest.Frame(t, g, name, w, AppendMemWrite(nil, w), DecodeMemWrite)
	}
	for name, a := range map[string]MemAck{
		"mema-empty":  {Ack: bare},
		"mema-stored": {Ack: applied, MemFence: 3, MemEpoch: 9, Frame: []byte("stored")},
	} {
		wiretest.Frame(t, g, name, a, AppendMemAck(nil, a), DecodeMemAck)
	}
}

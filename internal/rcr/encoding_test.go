package rcr

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
	"time"

	"repro/internal/wire/wiretest"
)

// encTestSnapshot is a small but fully populated snapshot: system,
// socket and core meters all present.
func encTestSnapshot() Snapshot {
	bb, _ := NewBlackboard(2, 2)
	bb.SetSystem(MeterPower, 141.7, 3*time.Second)
	bb.SetSystem(MeterHeartbeat, 42, 3*time.Second)
	bb.SetSocket(0, MeterEnergy, 6860.5, 3*time.Second)
	bb.SetSocket(1, MeterMemConcurrency, 17, 2*time.Second)
	bb.SetCore(0, MeterDutyCycle, 0.25, time.Second)
	bb.SetCore(3, MeterTemperature, 55, time.Second)
	return snapshotOf(bb, 3*time.Second)
}

// TestDecodeSnapshotTruncatedNeverPanics: every proper prefix of a valid
// encoding must error cleanly — no panic, no partial success.
func TestDecodeSnapshotTruncatedNeverPanics(t *testing.T) {
	full := AppendSnapshot(nil, encTestSnapshot())
	for n := 0; n < len(full); n++ {
		if _, err := DecodeSnapshot(full[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded successfully", n, len(full))
		}
	}
}

// TestDecodeSnapshotOversizedCounts: payloads whose count fields claim
// more meters/sockets/cores than maxMeters must be rejected before any
// large allocation happens.
func TestDecodeSnapshotOversizedCounts(t *testing.T) {
	put16 := func(b *bytes.Buffer, v uint16) {
		var buf [2]byte
		binary.LittleEndian.PutUint16(buf[:], v)
		b.Write(buf[:])
	}
	put64 := func(b *bytes.Buffer, v uint64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		b.Write(buf[:])
	}
	header := func() *bytes.Buffer {
		var b bytes.Buffer
		b.Write(snapshotMagic[:])
		put64(&b, 0) // now
		return &b
	}

	t.Run("system meter count", func(t *testing.T) {
		b := header()
		put16(b, maxMeters+1)
		if _, err := DecodeSnapshot(b.Bytes()); err == nil {
			t.Error("oversized system meter count accepted")
		}
	})
	t.Run("socket count", func(t *testing.T) {
		b := header()
		put16(b, 0) // no system meters
		put16(b, maxMeters+1)
		if _, err := DecodeSnapshot(b.Bytes()); err == nil {
			t.Error("oversized socket count accepted")
		}
	})
	t.Run("core count", func(t *testing.T) {
		b := header()
		put16(b, 0) // no system meters
		put16(b, 1) // one socket
		put16(b, 0) // no socket meters
		put16(b, maxMeters+1)
		if _, err := DecodeSnapshot(b.Bytes()); err == nil {
			t.Error("oversized core count accepted")
		}
	})
	t.Run("claimed meters without bytes", func(t *testing.T) {
		// The worst legal claim: maxMeters meters with an empty body. The
		// decoder must fail on the first missing name, not allocate per
		// claimed entry payloads it has no bytes for.
		b := header()
		put16(b, maxMeters)
		if _, err := DecodeSnapshot(b.Bytes()); err == nil {
			t.Error("meter list with no body accepted")
		}
	})
}

// TestDecodeSnapshotBitFlips: single-bit corruptions of a valid payload
// must never panic. (They may still decode — a flipped value bit yields
// a different but structurally valid snapshot — so only cleanliness is
// asserted, plus re-encode stability when decoding succeeds.)
func TestDecodeSnapshotBitFlips(t *testing.T) {
	full := AppendSnapshot(nil, encTestSnapshot())
	buf := make([]byte, len(full))
	for i := 0; i < len(full); i++ {
		for bit := 0; bit < 8; bit++ {
			copy(buf, full)
			buf[i] ^= 1 << bit
			s, err := DecodeSnapshot(buf)
			if err != nil {
				continue
			}
			// Structurally valid: it must round-trip exactly.
			again, err := DecodeSnapshot(AppendSnapshot(nil, s))
			if err != nil {
				t.Fatalf("re-encode of bit-flipped decode failed at byte %d bit %d: %v", i, bit, err)
			}
			if !reflect.DeepEqual(s, again) {
				t.Fatalf("bit flip at byte %d bit %d broke round-trip stability", i, bit)
			}
		}
	}
}

// FuzzDecodeSnapshot holds all three blackboard decoders — legacy
// snapshot, full frame, delta frame — to the canonical-codec property
// on arbitrary payloads. The frame decoders fill a frame still warm
// from a seed, as a subscription's are from the frame before.
func FuzzDecodeSnapshot(f *testing.F) {
	f.Add([]byte{})
	f.Add(snapshotMagic[:])
	f.Add(fullMagic[:])
	f.Add(deltaMagic[:])
	f.Add(AppendSnapshot(nil, Snapshot{}))
	f.Add(AppendSnapshot(nil, encTestSnapshot()))
	trunc := AppendSnapshot(nil, encTestSnapshot())
	f.Add(trunc[:len(trunc)/2])
	bb, _ := NewBlackboard(2, 2)
	bb.SetSystem(MeterPower, 141.7, 3*time.Second)
	bb.SetSocket(0, MeterEnergy, 6860.5, 3*time.Second)
	var full FullFrame
	bb.CollectFull(&full)
	full.Flags = FlagInitial
	encF := AppendFullFrame(nil, &full)
	f.Add(encF)
	f.Add(encF[:len(encF)/2])
	bb.SetCore(1, MeterDutyCycle, 0.5, 4*time.Second)
	var delta DeltaFrame
	bb.CollectDelta(full.Ver, &delta)
	encD := AppendDeltaFrame(nil, &delta)
	f.Add(encD)
	f.Add(encD[:len(encD)/2])
	var hb DeltaFrame
	bb.CollectDelta(bb.pub.Load(), &hb)
	f.Add(AppendDeltaFrame(nil, &hb))
	f.Fuzz(func(t *testing.T, data []byte) {
		wiretest.Canonical(t, data, func(b []byte) ([]byte, error) {
			s, err := DecodeSnapshot(b)
			return AppendSnapshot(nil, s), err
		})
		var full FullFrame
		if err := DecodeFullFrame(encF, &full); err != nil {
			t.Fatal(err)
		}
		wiretest.Canonical(t, data, func(b []byte) ([]byte, error) {
			err := DecodeFullFrame(b, &full)
			return AppendFullFrame(nil, &full), err
		})
		var delta DeltaFrame
		if err := DecodeDeltaFrame(encD, &delta); err != nil {
			t.Fatal(err)
		}
		wiretest.Canonical(t, data, func(b []byte) ([]byte, error) {
			err := DecodeDeltaFrame(b, &delta)
			return AppendDeltaFrame(nil, &delta), err
		})
	})
}

// TestDecodeSnapshotAllocs: a decoded snapshot is three allocations
// whatever its size — the meter arena, the socket list and the core
// lists — and the standard meter names cost none.
func TestDecodeSnapshotAllocs(t *testing.T) {
	bb, _ := NewBlackboard(2, 8)
	populate(bb, time.Second)
	p := AppendSnapshot(nil, snapshotOf(bb, time.Second))
	if n := testing.AllocsPerRun(100, func() { _, _ = DecodeSnapshot(p) }); n != 3 {
		t.Errorf("DecodeSnapshot of a 2×8 board allocates %.0f/op, want 3", n)
	}
}

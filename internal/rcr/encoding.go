package rcr

import (
	"encoding/binary"
	"math"
	"slices"
	"time"

	"repro/internal/wire"
)

// Binary snapshot encoding. The format is self-describing (meter names
// travel with values), mirroring the real RCRdaemon's self-describing
// shared-memory structure:
//
//	magic   [4]byte "RCR1"
//	now     int64 (ns)
//	system  meterList
//	nSock   uint16
//	per socket: meterList, nCore uint16, per core: meterList
//
//	meterList: uint16 count, then per meter:
//	  uint16 name length, name bytes, float64 value, int64 updated (ns)
//
// Byte order, strictness and canonical form are package wire's shared
// rules. Snapshot meters are name-sorted (the order is fixed at
// blackboard registration time), so two snapshots of identical state
// encode byte-identically.
//
// delta.go defines the companion incremental formats ("RCRF" full frame,
// "RCRD" delta frame) used by the pub/sub stream, where an unchanged
// board costs a fixed-size heartbeat instead of a full serialization.

var snapshotMagic = [4]byte{'R', 'C', 'R', '1'}

// maxMeters bounds decoded list sizes to keep a corrupt or hostile stream
// from causing huge allocations.
const maxMeters = 1 << 12

// snapshotSize returns the exact encoded size of s, so encoders can
// allocate (or grow) once instead of incrementally.
func snapshotSize(s Snapshot) int {
	n := 4 + 8 // magic + now
	n += meterListSize(s.System)
	n += 2 // nSock
	for _, sock := range s.Sockets {
		n += meterListSize(sock.Meters)
		n += 2 // nCore
		for _, core := range sock.Cores {
			n += meterListSize(core)
		}
	}
	return n
}

func meterListSize(ms []MeterValue) int {
	n := 2 // count
	for _, m := range ms {
		n += 2 + len(m.Name) + 8 + 8
	}
	return n
}

// AppendSnapshot serializes s onto dst and returns the extended slice.
// The exact encoded size is computed up front, so at most one allocation
// happens (none when dst has capacity) — this is the hot-path form used
// by the IPC server's per-connection scratch buffers.
func AppendSnapshot(dst []byte, s Snapshot) []byte {
	dst = slices.Grow(dst, snapshotSize(s))
	dst = append(dst, snapshotMagic[:]...)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(s.Now))
	dst = appendMeters(dst, s.System)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s.Sockets)))
	for _, sock := range s.Sockets {
		dst = appendMeters(dst, sock.Meters)
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(sock.Cores)))
		for _, core := range sock.Cores {
			dst = appendMeters(dst, core)
		}
	}
	return dst
}

// EncodeSnapshot serializes a snapshot into a fresh, exactly-sized
// buffer (a single allocation).
func EncodeSnapshot(s Snapshot) []byte {
	return AppendSnapshot(make([]byte, 0, snapshotSize(s)), s)
}

// DecodeSnapshot parses a snapshot previously produced by EncodeSnapshot.
func DecodeSnapshot(data []byte) (Snapshot, error) {
	r := wire.NewReader("rcr: snapshot", data)
	r.Magic(snapshotMagic)
	s := Snapshot{Now: time.Duration(r.I64())}
	s.System = readMeters(r)
	s.Sockets = make([]DomainSnap, r.Count16(maxMeters))
	for i := range s.Sockets {
		s.Sockets[i].Meters = readMeters(r)
		s.Sockets[i].Cores = make([][]MeterValue, r.Count16(maxMeters))
		for c := range s.Sockets[i].Cores {
			s.Sockets[i].Cores[c] = readMeters(r)
		}
	}
	return wire.Done(r, s)
}

func appendMeters(dst []byte, ms []MeterValue) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(ms)))
	for _, m := range ms {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(m.Name)))
		dst = append(dst, m.Name...)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(m.Value))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(m.Updated))
	}
	return dst
}

func readMeters(r *wire.Reader) []MeterValue {
	ms := make([]MeterValue, r.Count16(maxMeters))
	for i := range ms {
		ms[i].Name = string(r.Bytes(int(r.U16())))
		ms[i].Value = r.F64()
		ms[i].Updated = time.Duration(r.I64())
	}
	return ms
}

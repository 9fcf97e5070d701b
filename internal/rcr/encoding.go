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

// minMeterBytes is the smallest encoded meter: an empty name, a value
// and a stamp. A payload of n bytes holds at most n/minMeterBytes meters.
const minMeterBytes = 2 + 8 + 8

// DecodeSnapshot parses a snapshot previously produced by EncodeSnapshot.
// Every meter list is a window of one backing array sized from the
// payload, capped so that appending to one list cannot overwrite the
// next.
func DecodeSnapshot(data []byte) (Snapshot, error) {
	r := wire.NewReader("rcr: snapshot", data)
	r.Magic(snapshotMagic)
	arena := make([]MeterValue, 0, len(data)/minMeterBytes)
	s := Snapshot{Now: time.Duration(r.I64())}
	s.System, arena = readMeters(r, arena)
	s.Sockets = make([]DomainSnap, r.Count16(maxMeters))
	for i := range s.Sockets {
		s.Sockets[i].Meters, arena = readMeters(r, arena)
		s.Sockets[i].Cores = make([][]MeterValue, r.Count16(maxMeters))
		for c := range s.Sockets[i].Cores {
			s.Sockets[i].Cores[c], arena = readMeters(r, arena)
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

// readMeters appends one meter list to arena and returns it, never nil,
// with the grown arena.
func readMeters(r *wire.Reader, arena []MeterValue) ([]MeterValue, []MeterValue) {
	start := len(arena)
	for n := r.Count16(maxMeters); n > 0 && r.Err() == nil; n-- {
		name := meterName(r.Bytes(int(r.U16())))
		arena = append(arena, MeterValue{Name: name, Value: r.F64(), Updated: time.Duration(r.I64())})
	}
	return arena[start:len(arena):len(arena)], arena
}

// standardMeters are the names the sampler and the fence guard write.
var standardMeters = [...]string{MeterEnergy, MeterPower, MeterMemBandwidth, MeterMemConcurrency,
	MeterTemperature, MeterDutyCycle, MeterHeartbeat, MeterFence, MeterLeaseHolder,
	MeterLeaseExpiry, MeterFencedCap, MeterMemberEpoch}

// meterName returns the package's constant for a standard meter name
// and a copy of anything else, so decoding allocates no string for them.
func meterName(b []byte) string {
	for _, name := range standardMeters {
		if string(b) == name {
			return name
		}
	}
	return string(b)
}

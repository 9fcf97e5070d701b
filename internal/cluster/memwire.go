package cluster

import (
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"repro/internal/wire"
)

// Membership wire encoding ("CLSM"): the registry's epoch-versioned
// record as one frame, replicated from the HA leader to the shard
// fence guards (and exported to operators), with explicit identity and
// versioning in-band so a receiver can reject replays no matter how the
// frame was transported:
//
//	header:
//	  magic   [4]byte "CLSM"
//	  now     int64  (ns, sender host clock)
//	  epoch   uint64 (registry epoch, ≥ 1)
//	  n       uint16 (member count, tombstones included)
//	per member, ascending strictly unique id:
//	  id      uint16
//	  inc     uint32 (incarnation, ≥ 1)
//	  state   uint8  (MemberState, < NumMemberStates)
//	  network uint8  (0 unix, 1 tcp)
//	  alen    uint16 (endpoint address length ≤ maxMemberAddr)
//	  addr    [alen]byte (printable ASCII)
//
// Package wire's shared rules apply; on top of them unknown states or
// networks, zero epochs or incarnations, unsorted ids and over-long or
// non-printable addresses are rejected (FuzzDecodeMembership).

var memMagic = [4]byte{'C', 'L', 'S', 'M'}

// maxMembers bounds the decoded member count; 4096 nodes is an order of
// magnitude beyond the fleet sizes this tier simulates.
const maxMembers = 4096

// maxMemberAddr bounds an endpoint address — longer than any sane
// socket path or host:port, short enough that a crafted frame cannot
// drive a giant allocation.
const maxMemberAddr = 256

// memNetworks lists the encodable MemberRecord.Network values; the
// wire code is the index.
var memNetworks = [...]string{"unix", "tcp"}

// MemberRecord is one member's line in a membership frame.
type MemberRecord struct {
	ID          uint16
	Incarnation uint32 // ≥ 1
	State       MemberState
	Network     string // "unix" or "tcp"
	Addr        string
}

// MembershipRecord is the decoded form of a "CLSM" frame: the whole
// registry at one epoch, tombstones included.
type MembershipRecord struct {
	Now     time.Duration
	Epoch   uint64
	Members []MemberRecord
}

const memHeaderSize = 4 + 8 + 8 + 2
const memRecordFixed = 2 + 4 + 1 + 1 + 2

// addrOK accepts printable-ASCII endpoint addresses within the length
// bound. Socket paths and host:port strings are both printable ASCII;
// anything else in a frame is corruption or craft.
func addrOK(addr string) bool {
	if len(addr) > maxMemberAddr {
		return false
	}
	for i := 0; i < len(addr); i++ {
		if addr[i] < 0x20 || addr[i] > 0x7e {
			return false
		}
	}
	return true
}

// AppendMembership serializes rec onto dst (one allocation at most).
// Members must already be sorted by strictly increasing ID and every
// field encodable; Membership.Record always satisfies both.
func AppendMembership(dst []byte, rec *MembershipRecord) ([]byte, error) {
	if rec.Epoch == 0 {
		return dst, fmt.Errorf("cluster: membership epoch 0 is reserved")
	}
	if len(rec.Members) > maxMembers {
		return dst, fmt.Errorf("cluster: %d members exceeds the frame bound %d", len(rec.Members), maxMembers)
	}
	need := memHeaderSize
	for i := range rec.Members {
		need += memRecordFixed + len(rec.Members[i].Addr)
	}
	dst = slices.Grow(dst, need)
	dst = append(dst, memMagic[:]...)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(rec.Now))
	dst = binary.LittleEndian.AppendUint64(dst, rec.Epoch)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(rec.Members)))
	lastID := -1
	for i := range rec.Members {
		m := &rec.Members[i]
		if int(m.ID) <= lastID {
			return dst, fmt.Errorf("cluster: membership ids not strictly increasing (%d after %d)", m.ID, lastID)
		}
		lastID = int(m.ID)
		if m.Incarnation == 0 {
			return dst, fmt.Errorf("cluster: member %d incarnation 0 is reserved", m.ID)
		}
		if m.State >= NumMemberStates {
			return dst, fmt.Errorf("cluster: member %d state %d unknown", m.ID, m.State)
		}
		net := slices.Index(memNetworks[:], m.Network)
		if net < 0 {
			return dst, fmt.Errorf("cluster: member %d network %q is not encodable", m.ID, m.Network)
		}
		if !addrOK(m.Addr) {
			return dst, fmt.Errorf("cluster: member %d address not encodable", m.ID)
		}
		dst = binary.LittleEndian.AppendUint16(dst, m.ID)
		dst = binary.LittleEndian.AppendUint32(dst, m.Incarnation)
		dst = append(dst, uint8(m.State), uint8(net))
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(m.Addr)))
		dst = append(dst, m.Addr...)
	}
	return dst, nil
}

// DecodeMembership parses a "CLSM" frame into rec, reusing rec.Members.
// Decoding is strict; a corrupt or crafted frame errors out — and
// leaves rec zeroed — rather than entering a registry.
func DecodeMembership(data []byte, rec *MembershipRecord) error {
	r := wire.NewReader("cluster: membership frame", data)
	r.Magic(memMagic)
	rec.Now = time.Duration(r.I64())
	if rec.Now < 0 {
		r.Fail("negative frame time %d", rec.Now)
	}
	rec.Epoch = r.U64()
	if rec.Epoch == 0 {
		r.Fail("epoch 0 is reserved")
	}
	rec.Members = rec.Members[:0]
	lastID := -1
	for n := r.Count16(maxMembers); n > 0 && r.Err() == nil; n-- {
		m := MemberRecord{ID: r.U16()}
		if int(m.ID) <= lastID {
			r.Fail("ids not strictly increasing (%d after %d)", m.ID, lastID)
		}
		lastID = int(m.ID)
		m.Incarnation = r.U32()
		if m.Incarnation == 0 {
			r.Fail("member %d incarnation 0 is reserved", m.ID)
		}
		m.State = MemberState(r.U8())
		if m.State >= NumMemberStates {
			r.Fail("member %d state %d unknown", m.ID, m.State)
		}
		if net := int(r.U8()); net < len(memNetworks) {
			m.Network = memNetworks[net]
		} else {
			r.Fail("member %d network code %d unknown", m.ID, net)
		}
		m.Addr = string(r.Bytes(r.Count16(maxMemberAddr)))
		if !addrOK(m.Addr) {
			r.Fail("member %d address not printable", m.ID)
		}
		rec.Members = append(rec.Members, m)
	}
	return wire.DoneInto(r, rec)
}

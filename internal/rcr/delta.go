package rcr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"time"

	"repro/internal/wire"
)

// Incremental snapshot encoding for the pub/sub stream (pubsub.go). The
// legacy "RCR1" snapshot is self-describing and order-independent; these
// frames instead address meters by slot index (meterID*nScopes + scope),
// the identity fixed at blackboard registration, so a tick where nothing
// moved costs a fixed-size heartbeat and a tick where k meters moved
// costs O(k):
//
//	full frame ("RCRF") — the schema + complete state, sent once at
//	subscribe and again after loss or a schema change:
//	  magic    [4]byte "RCRF"
//	  gen      uint32  schema generation
//	  ver      uint64  publish version this state reflects
//	  now      int64   (ns)
//	  flags    uint8   (FlagInitial | FlagResync | FlagSchemaChange)
//	  nSock    uint16, perSock uint16
//	  nNames   uint16, then per name: uint16 length + bytes
//	  nSlots   uint32
//	  present  bitmap, ceil(nSlots/8) bytes, LSB-first
//	  per present slot (ascending index): float64 value, int64 updated
//
//	delta frame ("RCRD") — changes in (from, to], sent every tick:
//	  magic    [4]byte "RCRD"
//	  gen      uint32
//	  from     uint64  basis publish version
//	  to       uint64  new publish version (== from: heartbeat, body ends)
//	  now      int64   (ns)
//	  flags    uint8
//	  nSlots   uint32
//	  changed  bitmap, ceil(nSlots/8) bytes, LSB-first
//	  per changed slot (ascending index): float64 value, int64 updated
//
// Package wire's shared rules apply.

var (
	fullMagic  = [4]byte{'R', 'C', 'R', 'F'}
	deltaMagic = [4]byte{'R', 'C', 'R', 'D'}
)

// Frame flags.
const (
	// FlagInitial marks the full frame opening a subscription.
	FlagInitial uint8 = 1 << 0
	// FlagResync marks a full frame sent because the subscriber fell
	// behind (its queue overflowed) and deltas were dropped.
	FlagResync uint8 = 1 << 1
	// FlagSchemaChange marks a full frame sent because a new meter name
	// registered (the slot layout grew).
	FlagSchemaChange uint8 = 1 << 2
)

// maxFrameSlots bounds the decoded slot count: 1<<20 slots is a 128 KiB
// bitmap — far beyond any real topology, small enough to be harmless.
const maxFrameSlots = 1 << 20

// ErrDeltaGap reports a delta frame that does not connect to the state
// held by the subscriber (schema generation mismatch, or a basis version
// newer than the state). The subscriber must wait for — or request — a
// full frame.
var ErrDeltaGap = errors.New("rcr: delta frame does not extend held state")

// DeltaFrame is the decoded/collectable form of an "RCRD" frame. The
// slices are reused across Collect/Decode calls, so a warm frame costs
// zero allocations per tick.
type DeltaFrame struct {
	Gen    uint32
	From   uint64 // basis publish version
	To     uint64 // new publish version; == From means heartbeat
	Now    time.Duration
	Flags  uint8
	NSlots uint32
	Bitmap []byte    // ceil(NSlots/8), LSB-first; bit i = slot i changed
	Vals   []float64 // one per set bit, ascending slot index
	Upds   []int64
}

// Heartbeat reports whether the frame carries no slot changes.
func (f *DeltaFrame) Heartbeat() bool { return f.To == f.From }

// FullFrame is the decoded/collectable form of an "RCRF" frame.
type FullFrame struct {
	Gen     uint32
	Ver     uint64
	Now     time.Duration
	Flags   uint8
	Sockets uint16
	PerSock uint16
	Names   []string
	NSlots  uint32
	Bitmap  []byte // present slots
	Vals    []float64
	Upds    []int64
}

// growBitmap returns b resized (and zeroed) to hold n bits, reusing its
// backing array when possible.
func growBitmap(b []byte, n int) []byte {
	b = slices.Grow(b[:0], (n+7)/8)[:(n+7)/8]
	clear(b)
	return b
}

// CollectDelta scans the blackboard for slots written after sinceVer and
// fills f with them. f's slices are reused. The frame's To is the
// highest version actually observed in the scan — never the board's
// version counter, which may have been claimed by a write still in
// flight; such a write is simply picked up by the next collection.
func (bb *Blackboard) CollectDelta(sinceVer uint64, f *DeltaFrame) {
	sc := bb.schema.Load()
	slots := *bb.slots.Load()
	f.Gen = sc.gen
	f.From = sinceVer
	f.Flags = 0
	f.NSlots = uint32(len(slots))
	f.Bitmap = growBitmap(f.Bitmap, len(slots))
	f.Vals = f.Vals[:0]
	f.Upds = f.Upds[:0]
	maxVer := sinceVer
	for i, sl := range slots {
		b, u, v := sl.load()
		if v > sinceVer {
			f.Bitmap[i>>3] |= 1 << (i & 7)
			f.Vals = append(f.Vals, math.Float64frombits(b))
			f.Upds = append(f.Upds, u)
			if v > maxVer {
				maxVer = v
			}
		}
	}
	f.To = maxVer
}

// CollectFull fills f with the board's complete state and schema. Like
// CollectDelta, Ver is the highest version observed in the scan, so a
// delta collected later with From = an earlier collection's To never
// skips a write this frame missed.
func (bb *Blackboard) CollectFull(f *FullFrame) {
	sc := bb.schema.Load()
	slots := *bb.slots.Load()
	f.Gen = sc.gen
	f.Flags = 0
	f.Sockets = uint16(bb.nSock)
	f.PerSock = uint16(bb.perSock)
	f.Names = append(f.Names[:0], sc.names...)
	f.NSlots = uint32(len(slots))
	f.Bitmap = growBitmap(f.Bitmap, len(slots))
	f.Vals = f.Vals[:0]
	f.Upds = f.Upds[:0]
	var maxVer uint64
	for i, sl := range slots {
		b, u, v := sl.load()
		if v != 0 {
			f.Bitmap[i>>3] |= 1 << (i & 7)
			f.Vals = append(f.Vals, math.Float64frombits(b))
			f.Upds = append(f.Upds, u)
			if v > maxVer {
				maxVer = v
			}
		}
	}
	f.Ver = maxVer
}

// deltaFrameSize returns the exact encoded size of f.
func deltaFrameSize(f *DeltaFrame) int {
	n := 4 + 4 + 8 + 8 + 8 + 1
	if !f.Heartbeat() {
		n += 4 + len(f.Bitmap) + 16*len(f.Vals)
	}
	return n
}

// AppendDeltaFrame serializes f onto dst (one allocation at most).
func AppendDeltaFrame(dst []byte, f *DeltaFrame) []byte {
	dst = slices.Grow(dst, deltaFrameSize(f))
	dst = append(dst, deltaMagic[:]...)
	dst = binary.LittleEndian.AppendUint32(dst, f.Gen)
	dst = binary.LittleEndian.AppendUint64(dst, f.From)
	dst = binary.LittleEndian.AppendUint64(dst, f.To)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(f.Now))
	dst = append(dst, f.Flags)
	if f.Heartbeat() {
		return dst
	}
	return appendSlotBody(dst, f.NSlots, f.Bitmap, f.Vals, f.Upds)
}

// fullFrameSize returns the exact encoded size of f.
func fullFrameSize(f *FullFrame) int {
	n := 4 + 4 + 8 + 8 + 1 + 2 + 2 + 2
	for _, name := range f.Names {
		n += 2 + len(name)
	}
	n += 4 + len(f.Bitmap) + 16*len(f.Vals)
	return n
}

// AppendFullFrame serializes f onto dst (one allocation at most).
func AppendFullFrame(dst []byte, f *FullFrame) []byte {
	dst = slices.Grow(dst, fullFrameSize(f))
	dst = append(dst, fullMagic[:]...)
	dst = binary.LittleEndian.AppendUint32(dst, f.Gen)
	dst = binary.LittleEndian.AppendUint64(dst, f.Ver)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(f.Now))
	dst = append(dst, f.Flags)
	dst = binary.LittleEndian.AppendUint16(dst, f.Sockets)
	dst = binary.LittleEndian.AppendUint16(dst, f.PerSock)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(f.Names)))
	for _, name := range f.Names {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(name)))
		dst = append(dst, name...)
	}
	return appendSlotBody(dst, f.NSlots, f.Bitmap, f.Vals, f.Upds)
}

// appendSlotBody appends the shared tail of both frame kinds: nSlots,
// bitmap, and the (value, updated) pair per set bit.
func appendSlotBody(dst []byte, nSlots uint32, bitmap []byte, vals []float64, upds []int64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, nSlots)
	dst = append(dst, bitmap...)
	for i := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(vals[i]))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(upds[i]))
	}
	return dst
}

// popcount counts set bits in a bitmap.
func popcount(bm []byte) int {
	n := 0
	for _, b := range bm {
		n += bits.OnesCount8(b)
	}
	return n
}

// readSlotBody parses that tail into the caller's slices, which it
// reuses: a warm frame decodes without allocating.
func readSlotBody(r *wire.Reader, bitmap []byte, vals []float64, upds []int64) (uint32, []byte, []float64, []int64) {
	nSlots := r.Count32(maxFrameSlots)
	bitmap = append(bitmap[:0], r.Bytes((nSlots+7)/8)...)
	// Set bits past nSlots would smuggle extra values; reject them.
	for i := nSlots; i < 8*len(bitmap); i++ {
		if bitmap[i>>3]&(1<<(i&7)) != 0 {
			r.Fail("bitmap bit %d set beyond %d slots", i, nSlots)
		}
	}
	vals, upds = vals[:0], upds[:0]
	for n := popcount(bitmap); n > 0 && r.Err() == nil; n-- {
		vals = append(vals, r.F64())
		upds = append(upds, r.I64())
	}
	return uint32(nSlots), bitmap, vals, upds
}

// IsDeltaFrame reports whether data begins with the delta-frame magic —
// how a subscriber distinguishes pushed frame kinds.
func IsDeltaFrame(data []byte) bool { return wire.HasMagic(data, deltaMagic) }

// IsFullFrame reports whether data begins with the full-frame magic.
func IsFullFrame(data []byte) bool { return wire.HasMagic(data, fullMagic) }

// DecodeDeltaFrame parses an "RCRD" frame into f, reusing f's slices. A
// frame that fails to decode leaves f zeroed.
func DecodeDeltaFrame(data []byte, f *DeltaFrame) error {
	r := wire.NewReader("rcr: delta frame", data)
	r.Magic(deltaMagic)
	f.Gen = r.U32()
	f.From = r.U64()
	f.To = r.U64()
	f.Now = time.Duration(r.I64())
	f.Flags = r.U8()
	if f.To < f.From {
		r.Fail("runs backwards (%d -> %d)", f.From, f.To)
	}
	if f.Heartbeat() {
		f.NSlots, f.Bitmap, f.Vals, f.Upds = 0, f.Bitmap[:0], f.Vals[:0], f.Upds[:0]
	} else {
		f.NSlots, f.Bitmap, f.Vals, f.Upds = readSlotBody(r, f.Bitmap, f.Vals, f.Upds)
		if len(f.Vals) == 0 {
			r.Fail("advances %d -> %d with no changed slots", f.From, f.To)
		}
	}
	return wire.DoneInto(r, f)
}

// DecodeFullFrame parses an "RCRF" frame into f, reusing f's slices. A
// frame that fails to decode leaves f zeroed.
func DecodeFullFrame(data []byte, f *FullFrame) error {
	r := wire.NewReader("rcr: full frame", data)
	r.Magic(fullMagic)
	f.Gen = r.U32()
	f.Ver = r.U64()
	f.Now = time.Duration(r.I64())
	f.Flags = r.U8()
	f.Sockets = r.U16()
	f.PerSock = r.U16()
	f.Names = f.Names[:0]
	for n := r.Count16(maxMeters); n > 0 && r.Err() == nil; n-- {
		f.Names = append(f.Names, meterName(r.Bytes(int(r.U16()))))
	}
	f.NSlots, f.Bitmap, f.Vals, f.Upds = readSlotBody(r, f.Bitmap, f.Vals, f.Upds)
	// The slot count must match the declared topology and name table:
	// slot index arithmetic depends on it.
	nScopes := 1 + int(f.Sockets) + int(f.Sockets)*int(f.PerSock)
	if int(f.NSlots) != len(f.Names)*nScopes {
		r.Fail("slot count %d != %d names × %d scopes", f.NSlots, len(f.Names), nScopes)
	}
	return wire.DoneInto(r, f)
}

// SubState is a subscriber's materialized copy of the blackboard, built
// from one full frame and advanced by delta frames. It detects gaps
// (dropped deltas, schema changes) so the subscriber knows to resync.
type SubState struct {
	Gen     uint32
	Ver     uint64
	Now     time.Duration
	Sockets int
	PerSock int
	Names   []string

	nScopes int
	sorted  []int // Names' indices in name order, fixed at ApplyFull
	present []bool
	vals    []float64
	upds    []int64
	ready   bool
}

// ApplyFull replaces the state with a full frame.
func (st *SubState) ApplyFull(f *FullFrame) error {
	nScopes := 1 + int(f.Sockets) + int(f.Sockets)*int(f.PerSock)
	if f.Sockets == 0 || f.PerSock == 0 {
		return fmt.Errorf("rcr: full frame with empty topology %d×%d", f.Sockets, f.PerSock)
	}
	st.Gen = f.Gen
	st.Ver = f.Ver
	st.Now = f.Now
	st.Sockets = int(f.Sockets)
	st.PerSock = int(f.PerSock)
	st.Names = append(st.Names[:0], f.Names...)
	st.sorted = st.sorted[:0]
	for i := range st.Names {
		st.sorted = append(st.sorted, i)
	}
	slices.SortFunc(st.sorted, func(a, b int) int { return strings.Compare(st.Names[a], st.Names[b]) })
	st.nScopes = nScopes
	n := int(f.NSlots)
	if cap(st.present) < n {
		st.present = make([]bool, n)
		st.vals = make([]float64, n)
		st.upds = make([]int64, n)
	} else {
		st.present = st.present[:n]
		st.vals = st.vals[:n]
		st.upds = st.upds[:n]
	}
	k := 0
	for i := 0; i < n; i++ {
		if f.Bitmap[i>>3]&(1<<(i&7)) != 0 {
			st.present[i] = true
			st.vals[i] = f.Vals[k]
			st.upds[i] = f.Upds[k]
			k++
		} else {
			st.present[i] = false
			st.vals[i] = 0
			st.upds[i] = 0
		}
	}
	st.ready = true
	return nil
}

// ApplyDelta advances the state by one delta frame. Frames are applied
// only when they connect: the schema generation must match and the
// frame's basis must not be newer than the held version (From <= Ver) —
// otherwise ErrDeltaGap. A frame whose To is not newer than the held
// version carries nothing the state lacks (this happens benignly when a
// resync full frame observed writes a concurrently collected delta did
// not) and only refreshes Now.
func (st *SubState) ApplyDelta(f *DeltaFrame) error {
	if !st.ready {
		return ErrDeltaGap
	}
	if f.Gen != st.Gen {
		return fmt.Errorf("%w: schema gen %d, state holds %d", ErrDeltaGap, f.Gen, st.Gen)
	}
	if f.Heartbeat() {
		if f.Now > st.Now {
			st.Now = f.Now
		}
		return nil
	}
	if f.From > st.Ver {
		return fmt.Errorf("%w: basis %d, state holds %d", ErrDeltaGap, f.From, st.Ver)
	}
	if f.Now > st.Now {
		st.Now = f.Now
	}
	if f.To <= st.Ver {
		return nil // already covered by a newer full frame
	}
	if int(f.NSlots) > len(st.present) {
		return fmt.Errorf("%w: frame has %d slots, state %d (missed schema change)",
			ErrDeltaGap, f.NSlots, len(st.present))
	}
	k := 0
	for i := 0; i < int(f.NSlots); i++ {
		if f.Bitmap[i>>3]&(1<<(i&7)) != 0 {
			st.present[i] = true
			st.vals[i] = f.Vals[k]
			st.upds[i] = f.Upds[k]
			k++
		}
	}
	st.Ver = f.To
	return nil
}

// Snapshot converts the state to the legacy deep-copy form, meters
// name-sorted exactly as Blackboard.Snapshot produces them. Like
// DecodeSnapshot it takes every meter list from one backing array and
// every core list from another.
func (st *SubState) Snapshot() Snapshot {
	s := Snapshot{Now: st.Now, System: []MeterValue{}}
	if !st.ready {
		return s
	}
	n := 0
	for _, p := range st.present {
		if p {
			n++
		}
	}
	arena := make([]MeterValue, 0, n)
	scope := func(sc int) []MeterValue {
		start := len(arena)
		for _, id := range st.sorted {
			idx := id*st.nScopes + sc
			if idx < len(st.present) && st.present[idx] {
				arena = append(arena, MeterValue{
					Name:    st.Names[id],
					Value:   st.vals[idx],
					Updated: time.Duration(st.upds[idx]),
				})
			}
		}
		return arena[start:len(arena):len(arena)]
	}
	s.System = scope(0)
	s.Sockets = make([]DomainSnap, st.Sockets)
	cores := make([][]MeterValue, st.Sockets*st.PerSock)
	for i := range s.Sockets {
		ds := &s.Sockets[i]
		ds.Meters = scope(1 + i)
		ds.Cores = cores[i*st.PerSock : (i+1)*st.PerSock : (i+1)*st.PerSock]
		for c := range ds.Cores {
			ds.Cores[c] = scope(1 + st.Sockets + i*st.PerSock + c)
		}
	}
	return s
}

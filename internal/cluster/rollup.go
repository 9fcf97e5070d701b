package cluster

import (
	"encoding/binary"
	"math"
	"slices"
	"time"

	"repro/internal/wire"
)

// Cluster roll-up encoding ("CLS1"): the aggregator's fleet-wide state
// as one frame, exported up the hierarchy (a rack aggregator feeding a
// row aggregator) or to operators. Unlike the per-node RCRF/RCRD frames
// the records here carry explicit shard identity and incarnation, so a
// receiver can reject replayed or out-of-order frames no matter how
// they were transported:
//
//	header:
//	  magic    [4]byte "CLS1"
//	  now      int64   (ns, aggregator host clock)
//	  budget   float64 (global watt budget)
//	  nShards  uint16
//	per shard, ascending strictly unique id:
//	  id       uint16
//	  epoch    uint32  shard incarnation (bumps when a restart is seen)
//	  ver      uint64  shard blackboard version inside the epoch
//	  flags    uint8   (ShardHealthy)
//	  power    float64 (W, current draw)
//	  headroom float64 (in [0,1])
//	  cap      float64 (W, assigned share of the budget)
//
// Package wire's shared rules apply; on top of them unknown flags,
// non-finite or negative quantities, out-of-range headroom and unsorted
// ids are rejected, so a corrupt frame fails loudly instead of
// poisoning the receiving blackboard (FuzzDecodeClusterFrame).

var rollupMagic = [4]byte{'C', 'L', 'S', '1'}

// ShardHealthy flags a shard record as live at collection time.
const ShardHealthy uint8 = 1 << 0

// maxRollupShards bounds the decoded shard count; 4096 nodes is an
// order of magnitude beyond the fleet sizes this tier simulates.
const maxRollupShards = 4096

// ShardRecord is one shard's line in a roll-up frame.
type ShardRecord struct {
	ID       uint16
	Epoch    uint32 // incarnation; a restart starts a new epoch
	Ver      uint64 // blackboard version within the epoch
	Healthy  bool
	Power    float64 // W
	Headroom float64 // [0,1]
	Cap      float64 // W, assigned share
}

// ClusterFrame is the decoded form of a "CLS1" frame.
type ClusterFrame struct {
	Now    time.Duration
	Budget float64
	Shards []ShardRecord
}

const rollupHeaderSize = 4 + 8 + 8 + 2
const rollupRecordSize = 2 + 4 + 8 + 1 + 8 + 8 + 8

// AppendClusterFrame serializes f onto dst (one allocation at most).
func AppendClusterFrame(dst []byte, f *ClusterFrame) []byte {
	dst = slices.Grow(dst, rollupHeaderSize+rollupRecordSize*len(f.Shards))
	dst = append(dst, rollupMagic[:]...)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(f.Now))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f.Budget))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(f.Shards)))
	for i := range f.Shards {
		s := &f.Shards[i]
		dst = binary.LittleEndian.AppendUint16(dst, s.ID)
		dst = binary.LittleEndian.AppendUint32(dst, s.Epoch)
		dst = binary.LittleEndian.AppendUint64(dst, s.Ver)
		var flags uint8
		if s.Healthy {
			flags |= ShardHealthy
		}
		dst = append(dst, flags)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.Power))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.Headroom))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.Cap))
	}
	return dst
}

// wattOK accepts a finite, non-negative power/cap/budget quantity.
func wattOK(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0
}

// DecodeClusterFrame parses a "CLS1" frame into f, reusing f.Shards.
// Decoding is strict: every quantity is validated so a corrupt or
// crafted frame errors out — and leaves f zeroed — rather than entering
// the blackboard.
func DecodeClusterFrame(data []byte, f *ClusterFrame) error {
	r := wire.NewReader("cluster: roll-up frame", data)
	r.Magic(rollupMagic)
	f.Now = time.Duration(r.I64())
	if f.Now < 0 {
		r.Fail("negative frame time %d", f.Now)
	}
	f.Budget = r.F64()
	if !wattOK(f.Budget) {
		r.Fail("implausible budget %g W", f.Budget)
	}
	f.Shards = f.Shards[:0]
	lastID := -1
	for n := r.Count16(maxRollupShards); n > 0 && r.Err() == nil; n-- {
		s := ShardRecord{ID: r.U16()}
		if int(s.ID) <= lastID {
			r.Fail("shard ids not strictly increasing (%d after %d)", s.ID, lastID)
		}
		lastID = int(s.ID)
		s.Epoch = r.U32()
		s.Ver = r.U64()
		flags := r.U8()
		if flags&^ShardHealthy != 0 {
			r.Fail("shard %d has unknown flags %#x", s.ID, flags)
		}
		s.Healthy = flags&ShardHealthy != 0
		s.Power = r.F64()
		s.Headroom = r.F64()
		s.Cap = r.F64()
		if !wattOK(s.Power) || !wattOK(s.Cap) {
			r.Fail("shard %d has implausible power %g W or cap %g W", s.ID, s.Power, s.Cap)
		}
		if math.IsNaN(s.Headroom) || s.Headroom < 0 || s.Headroom > 1 {
			r.Fail("shard %d has headroom %g outside [0,1]", s.ID, s.Headroom)
		}
		f.Shards = append(f.Shards, s)
	}
	return wire.DoneInto(r, f)
}

// shardSeen is the receiver's high-water mark for one shard.
type shardSeen struct {
	epoch uint32
	ver   uint64
	rec   ShardRecord
}

// ClusterState is the receiving side of the roll-up path: it folds
// decoded frames into a per-shard latest-record view while refusing to
// move backwards. A record from an older epoch (a replayed frame from
// before a shard restart) or a stale version within the current epoch
// is skipped and counted, never merged — the replay/anti-poison
// guarantee the fuzz and regression tests pin down. Not safe for
// concurrent use; the aggregator owns it from a single goroutine.
type ClusterState struct {
	shards map[uint16]*shardSeen
	now    time.Duration

	// Applied counts records accepted; Replayed counts stale-version
	// skips; Regressed counts old-epoch skips.
	Applied   uint64
	Replayed  uint64
	Regressed uint64
}

// NewClusterState returns an empty receiver state.
func NewClusterState() *ClusterState {
	return &ClusterState{shards: make(map[uint16]*shardSeen)}
}

// Now returns the newest frame time folded in.
func (cs *ClusterState) Now() time.Duration { return cs.now }

// Shard returns the latest accepted record for a shard id.
func (cs *ClusterState) Shard(id uint16) (ShardRecord, bool) {
	s, ok := cs.shards[id]
	if !ok {
		return ShardRecord{}, false
	}
	return s.rec, true
}

// Apply folds one decoded frame into the state and reports how many of
// its records were accepted. Per shard, a record is accepted when it
// opens a new epoch or advances the version within the current epoch;
// an older epoch or a non-advancing version is skipped and counted.
// Frame time moves monotonically.
func (cs *ClusterState) Apply(f *ClusterFrame) int {
	if f.Now > cs.now {
		cs.now = f.Now
	}
	accepted := 0
	for i := range f.Shards {
		rec := f.Shards[i]
		s, ok := cs.shards[rec.ID]
		switch {
		case !ok:
			cs.shards[rec.ID] = &shardSeen{epoch: rec.Epoch, ver: rec.Ver, rec: rec}
		case rec.Epoch < s.epoch:
			cs.Regressed++
			continue
		case rec.Epoch == s.epoch && rec.Ver <= s.ver:
			cs.Replayed++
			continue
		default:
			s.epoch, s.ver, s.rec = rec.Epoch, rec.Ver, rec
		}
		accepted++
		cs.Applied++
	}
	return accepted
}

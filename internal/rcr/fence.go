package rcr

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Fenced cap writes (docs/cluster.md §HA). The cluster tier's cap-write
// path carries a monotone fence token so a demoted aggregator — one
// whose lease a standby has since taken over — cannot roll a shard back
// to a stale assignment. The shard side is a FenceGuard attached to its
// rcrd server ("MEM\n" op): it accepts a write only if the fence is
// fresh, renews the holder's lease on every accepted write, and mirrors
// the lease state into the shard blackboard as ordinary system meters —
// which means every aggregator replica learns who leads, under which
// fence, and until when, passively through the delta streams it already
// subscribes to. No extra coordination service exists: the shard fleet
// itself is the quorum.
//
// Wire formats (package wire's shared rules; FuzzDecodeCapWrite). A cap
// write travels as the prefix of a MEMW request and its ack as the prefix
// of a MEMA response (memcap.go):
//
//	CAPW: magic "CAPW", flags u8 (bit0 cap present, bit1 release),
//	      fence u64, leader u32, lease u64 (ns), seq u64, cap f64 bits
//	CAPA: magic "CAPA", status u8, flags u8 (bit0 applied-cap present),
//	      fence u64, holder u32, expiry u64 (host ns), applied f64 bits

// Lease meters the FenceGuard mirrors into the shard blackboard at
// system scope. Expiry is in host-clock seconds; fence and holder are
// exact for any realistic token (float64 holds integers to 2^53).
const (
	MeterFence       = "fence"
	MeterLeaseHolder = "leaseholder"
	MeterLeaseExpiry = "leasexpiry"
	// MeterFencedCap is the shard's last successfully applied fenced cap
	// in Watts — the passively replicated "committed assignment" a
	// promoted standby replays before issuing its own.
	MeterFencedCap = "fencedcap"
	// MeterMemberEpoch is the registry epoch of the committed membership
	// record this shard's guard stores — every standby replica learns how
	// current each shard's membership view is through the delta stream.
	MeterMemberEpoch = "memepoch"
)

// Cap-write ack statuses.
const (
	// CapApplied: the fence was accepted; the lease is renewed and any
	// carried cap was applied.
	CapApplied uint8 = 0
	// CapFenceRejected: the write lost to a fresher fence or a live
	// lease held by another leader. Nothing changed.
	CapFenceRejected uint8 = 1
	// CapApplyFailed: the fence was accepted and the lease renewed, but
	// the cap actuation itself failed (the shard's controller refused).
	CapApplyFailed uint8 = 2
)

const (
	capWriteLen = 4 + 1 + 8 + 4 + 8 + 8 + 8
	capAckLen   = 4 + 1 + 1 + 8 + 4 + 8 + 8

	capwFlagHasCap  = 1 << 0
	capwFlagRelease = 1 << 1
	capaFlagApplied = 1 << 0
)

var (
	capwMagic = [4]byte{'C', 'A', 'P', 'W'}
	capaMagic = [4]byte{'C', 'A', 'P', 'A'}
)

// CapWrite is one fenced cap-write / lease-renewal request.
type CapWrite struct {
	// Fence is the writer's fencing epoch. Shards accept monotonically:
	// a lower fence — or an equal fence from a different holder — is
	// rejected.
	Fence uint64
	// Leader identifies the issuing replica (non-zero).
	Leader uint32
	// Seq orders writes within one (fence, leader) stream: the guard
	// accepts only strictly increasing sequence numbers, so a write that
	// was delayed in flight — held back by a partition healing, say —
	// can never land after a fresher write from the same leader and roll
	// the cap back to a stale assignment. Required non-zero; a leader
	// starts each fence's stream at 1.
	Seq uint64
	// Lease is the requested lease duration; an accepted write renews
	// the holder's lease for this long from the shard's host clock.
	// Required positive unless Release is set.
	Lease time.Duration
	// HasCap marks Cap as present: false is a lease-only renewal (or an
	// election probe).
	HasCap bool
	// Cap is the power bound in Watts when HasCap is set.
	Cap float64
	// Release relinquishes the lease: the holder expires its own lease
	// immediately so a successor need not wait out the TTL. A release
	// carries no cap and no lease.
	Release bool
}

// CapAck reports the shard's decision plus its authoritative fence
// state, so even a rejected writer learns who actually leads and what
// cap the shard is really holding.
type CapAck struct {
	Status uint8
	// Fence and Holder are the guard's state after the decision.
	Fence  uint64
	Holder uint32
	// Expiry is the guard's lease expiry on its host clock.
	Expiry time.Duration
	// HasApplied marks Applied as present: the shard has had at least
	// one fenced cap applied.
	HasApplied bool
	// Applied is the shard's last successfully applied fenced cap.
	Applied float64
}

// AppendCapWrite appends w's strict CAPW encoding to dst.
func AppendCapWrite(dst []byte, w CapWrite) []byte {
	var flags uint8
	if w.HasCap {
		flags |= capwFlagHasCap
	}
	if w.Release {
		flags |= capwFlagRelease
	}
	dst = append(append(dst, capwMagic[:]...), flags)
	dst = binary.LittleEndian.AppendUint64(dst, w.Fence)
	dst = binary.LittleEndian.AppendUint32(dst, w.Leader)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(w.Lease))
	dst = binary.LittleEndian.AppendUint64(dst, w.Seq)
	var capBits uint64
	if w.HasCap {
		capBits = math.Float64bits(w.Cap)
	}
	return binary.LittleEndian.AppendUint64(dst, capBits)
}

// readCapWrite reads the CAPW fields that open MEMW: known flags only, a
// positive finite cap exactly when the cap flag is set, a positive lease
// exactly when the write is not a release.
func readCapWrite(r *wire.Reader) CapWrite {
	r.Magic(capwMagic)
	flags := r.U8()
	if flags&^uint8(capwFlagHasCap|capwFlagRelease) != 0 {
		r.Fail("unknown flags %#x", flags)
	}
	w := CapWrite{HasCap: flags&capwFlagHasCap != 0, Release: flags&capwFlagRelease != 0}
	w.Fence = r.U64()
	w.Leader = r.U32()
	w.Lease = time.Duration(r.I64())
	w.Seq = r.U64()
	capBits := r.U64()
	if w.Leader == 0 || w.Fence == 0 || w.Seq == 0 {
		r.Fail("leader %d, fence %d, seq %d: 0 is reserved", w.Leader, w.Fence, w.Seq)
	}
	if w.Release {
		if w.HasCap || w.Lease != 0 {
			r.Fail("release must carry no cap and no lease")
		}
	} else if w.Lease <= 0 {
		r.Fail("lease %d must be positive", w.Lease)
	}
	if w.HasCap {
		w.Cap = math.Float64frombits(capBits)
		if math.IsNaN(w.Cap) || math.IsInf(w.Cap, 0) || w.Cap <= 0 {
			r.Fail("cap %v must be positive and finite", w.Cap)
		}
	} else if capBits != 0 {
		r.Fail("carries cap bits without the cap flag")
	}
	return w
}

// AppendCapAck appends a's strict CAPA encoding to dst.
func AppendCapAck(dst []byte, a CapAck) []byte {
	var flags uint8
	if a.HasApplied {
		flags |= capaFlagApplied
	}
	dst = append(append(dst, capaMagic[:]...), a.Status, flags)
	dst = binary.LittleEndian.AppendUint64(dst, a.Fence)
	dst = binary.LittleEndian.AppendUint32(dst, a.Holder)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(a.Expiry))
	var bits uint64
	if a.HasApplied {
		bits = math.Float64bits(a.Applied)
	}
	return binary.LittleEndian.AppendUint64(dst, bits)
}

// readCapAck reads the CAPA fields that open MEMA.
func readCapAck(r *wire.Reader) CapAck {
	r.Magic(capaMagic)
	a := CapAck{Status: r.U8()}
	if a.Status > CapApplyFailed {
		r.Fail("status %d", a.Status)
	}
	flags := r.U8()
	if flags&^uint8(capaFlagApplied) != 0 {
		r.Fail("unknown flags %#x", flags)
	}
	a.HasApplied = flags&capaFlagApplied != 0
	a.Fence = r.U64()
	a.Holder = r.U32()
	a.Expiry = time.Duration(r.I64())
	bits := r.U64()
	if a.HasApplied {
		a.Applied = math.Float64frombits(bits)
		if math.IsNaN(a.Applied) || math.IsInf(a.Applied, 0) {
			r.Fail("applied %v must be finite", a.Applied)
		}
	} else if bits != 0 {
		r.Fail("carries applied bits without the flag")
	}
	return a
}

// FenceGuard is a shard's fencing state machine: the single authority
// over which aggregator replica may write this shard's cap. It outlives
// server incarnations — a restarted shard re-attaches the same guard
// (and Bind()s its fresh blackboard), so a crash never resets the fence
// high-water mark; a production daemon would persist it alongside the
// crash-safe state snapshots.
type FenceGuard struct {
	clock func() time.Duration
	apply func(cap float64, fence uint64) error

	journal *telemetry.Journal
	rejects *telemetry.Counter
	grants  *telemetry.Counter

	mu         sync.Mutex
	bb         *Blackboard
	fence      uint64
	holder     uint32
	seq        uint64 // last accepted seq within the current (fence, holder) stream
	expiry     time.Duration
	applied    float64
	hasApplied bool

	// Committed membership (opaque to the guard: the cluster tier owns
	// the frame format), replaced only by a record that MemSupersedes
	// it. Like the fence high-water mark it survives server incarnations.
	memFence uint64
	memEpoch uint64
	memFrame []byte
}

// NewFenceGuard builds a guard. clock supplies host time (the lease
// timebase); apply actuates an accepted cap (nil makes the guard
// lease-only). Call Bind to mirror lease state into a blackboard and
// Instrument/Journal for observability.
func NewFenceGuard(clock func() time.Duration, apply func(cap float64, fence uint64) error) *FenceGuard {
	return &FenceGuard{clock: clock, apply: apply}
}

// Instrument registers the guard's counters. Guards across a fleet may
// share one registry: they then share the counters, which is exactly
// the fleet-wide total the soak gates on.
func (g *FenceGuard) Instrument(reg *telemetry.Registry) {
	g.rejects = reg.Counter("cluster_fence_rejects_total")
	g.grants = reg.Counter("cluster_fence_grants_total")
}

// Journal routes fence_rejected records to j.
func (g *FenceGuard) Journal(j *telemetry.Journal) { g.journal = j }

// Bind mirrors lease state into bb (a fresh incarnation's blackboard
// after a shard restart) and republishes the current state so the new
// delta stream carries it from the first frame.
func (g *FenceGuard) Bind(bb *Blackboard) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.bb = bb
	g.mirrorLocked()
}

// mirrorLocked publishes the lease state to the bound blackboard as one
// write: one publish version for all of its meters.
func (g *FenceGuard) mirrorLocked() {
	if g.bb == nil {
		return
	}
	sys := g.bb.systemScope()
	ws := [5]meterWrite{
		{sys, MeterFence, float64(g.fence)},
		{sys, MeterLeaseHolder, float64(g.holder)},
		{sys, MeterLeaseExpiry, g.expiry.Seconds()},
	}
	n := 3
	if g.hasApplied {
		ws[n] = meterWrite{sys, MeterFencedCap, g.applied}
		n++
	}
	if g.memEpoch > 0 {
		ws[n] = meterWrite{sys, MeterMemberEpoch, float64(g.memEpoch)}
		n++
	}
	g.bb.write(g.clock(), ws[:n]...)
}

// PowerCycle clears the guard's applied-cap ledger while keeping the
// fence high-water mark, sequence barrier, and committed membership
// frame. The split mirrors what a production daemon persists across a
// power-off: the fence ratchet and membership live on disk and must
// survive (a rejoining node must never grant a fence its predecessor
// refused), but the cap lives in the package's enforcement registers,
// which reset when the node loses power. A decommissioned node that
// later rejoins therefore reports no committed cap — the fleet already
// reclaimed those watts, and resurrecting the stale ledger would make
// the new incarnation's admission look like a step-down from power it
// no longer draws.
func (g *FenceGuard) PowerCycle() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.applied, g.hasApplied = 0, false
	g.mirrorLocked()
}

// State returns the guard's current fence state as an ack-shaped view.
func (g *FenceGuard) State() CapAck {
	g.mu.Lock()
	defer g.mu.Unlock()
	return CapAck{
		Status: CapApplied, Fence: g.fence, Holder: g.holder,
		Expiry: g.expiry, HasApplied: g.hasApplied, Applied: g.applied,
	}
}

// Offer decides one cap write. Acceptance rules:
//
//   - a lower fence is always rejected (the writer was demoted);
//   - an equal fence is accepted only from the current holder (lease
//     renewal) — a rival candidate reusing the fence loses — and only
//     with a sequence number above the last one accepted, so a delayed
//     duplicate or a partition-held write released after fresher writes
//     have landed cannot roll the cap back;
//   - a higher fence is accepted from a new holder only once the
//     current lease has expired on this shard's clock, so a standby
//     cannot seize a shard out from under a leader that is still
//     renewing it. The current holder may always raise its own fence.
//
// An accepted non-release write renews the lease; an accepted release
// expires it immediately. Rejections change nothing and are journaled.
func (g *FenceGuard) Offer(w CapWrite) CapAck {
	now := g.clock()
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.offerLocked(w, now)
}

// offerLocked is Offer's body; OfferMem shares it so the fence decision
// and the membership store land in one critical section. Called with
// g.mu held.
func (g *FenceGuard) offerLocked(w CapWrite, now time.Duration) CapAck {
	reject := func(why string) CapAck {
		g.rejects.Inc()
		if g.journal != nil {
			g.journal.Record(telemetry.Decision{T: now, Kind: telemetry.KindFenceRejected,
				Detail: fmt.Sprintf("fence %d from replica %d rejected (%s): holder %d fence %d", w.Fence, w.Leader, why, g.holder, g.fence)})
		}
		return CapAck{Status: CapFenceRejected, Fence: g.fence, Holder: g.holder,
			Expiry: g.expiry, HasApplied: g.hasApplied, Applied: g.applied}
	}
	switch {
	case w.Fence == 0:
		return reject("zero fence")
	case w.Fence < g.fence:
		return reject("stale fence")
	case w.Fence == g.fence && g.fence != 0 && w.Leader != g.holder:
		return reject("fence owned")
	case w.Fence == g.fence && w.Leader == g.holder && w.Seq <= g.seq:
		return reject("stale seq")
	case w.Fence > g.fence && g.fence != 0 && w.Leader != g.holder && now < g.expiry:
		return reject("lease live")
	}
	g.fence = w.Fence
	g.holder = w.Leader
	g.seq = w.Seq
	if w.Release {
		g.expiry = now
	} else {
		g.expiry = now + w.Lease
	}
	status := CapApplied
	if w.HasCap {
		if g.apply == nil {
			status = CapApplyFailed
		} else if err := g.apply(w.Cap, w.Fence); err != nil {
			status = CapApplyFailed
		} else {
			g.applied, g.hasApplied = w.Cap, true
		}
	}
	g.grants.Inc()
	g.mirrorLocked()
	return CapAck{Status: status, Fence: g.fence, Holder: g.holder,
		Expiry: g.expiry, HasApplied: g.hasApplied, Applied: g.applied}
}

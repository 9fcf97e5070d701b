package rcr

import (
	"context"
	"encoding/binary"

	"repro/internal/wire"
)

// Fenced membership replication (docs/cluster.md §Membership). The HA
// leader replicates the fleet's epoch-versioned membership record to
// every shard guard the same way it replicates cap assignments: under
// its fence. A MemWrite is an ordinary CapWrite plus an opaque
// membership frame; the guard applies the CapWrite's fence rules first
// and stores the frame only if the write was accepted, so a deposed
// leader's stale membership view bounces exactly like its stale caps —
// which is what prevents it double-spending a departed shard's watts.
// Every ack returns the guard's stored record, so a campaigning
// standby's election probes double as the fetch: a majority of grants
// necessarily includes every majority-committed record, and the
// promoted leader adopts the most authoritative one (highest fence,
// then epoch) exactly as it adopts the cap assignment.
//
// Wire formats (package wire's shared rules):
//
//	MEMW: CAPW bytes, epoch u64, flen u32, frame [flen]byte
//	MEMA: CAPA bytes, memfence u64, memepoch u64, flen u32, frame
//
// An epoch-0 MemWrite is a pure probe/renewal: it carries no frame and
// stores nothing, but the ack still returns the stored record. The
// frame bytes are opaque here — the cluster tier owns the CLSM format
// and validates it strictly on both ends.

// MaxMemFrame bounds a membership frame on the wire; far beyond any
// fleet this tier simulates, small enough that a crafted length cannot
// drive a giant allocation.
const MaxMemFrame = 64 << 10

// MemWrite is one fenced membership commit (or, with Epoch 0, a pure
// lease write whose ack fetches the stored record).
type MemWrite struct {
	// Write is the fenced carrier: its fence/seq/lease rules decide
	// acceptance, and it may carry a cap exactly like a plain CapWrite.
	Write CapWrite
	// Epoch is the registry epoch of Frame; 0 carries no frame.
	Epoch uint64
	// Frame is the encoded membership record (cluster CLSM), opaque at
	// this layer. Must be empty exactly when Epoch is 0.
	Frame []byte
}

// MemAck is the guard's decision plus its stored membership record.
type MemAck struct {
	Ack CapAck
	// MemFence and MemEpoch version the stored record: the fence it was
	// committed under, then its registry epoch. Zero when nothing has
	// ever been stored.
	MemFence uint64
	MemEpoch uint64
	// Frame is the stored record's bytes (empty when MemEpoch is 0).
	Frame []byte
}

// AppendMemWrite appends w's strict MEMW encoding to dst.
func AppendMemWrite(dst []byte, w MemWrite) []byte {
	dst = AppendCapWrite(dst, w.Write)
	dst = binary.LittleEndian.AppendUint64(dst, w.Epoch)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(w.Frame)))
	return append(dst, w.Frame...)
}

// DecodeMemWrite strictly decodes a MEMW payload: a valid CAPW prefix,
// a bounded frame whose presence matches the epoch, no trailing bytes.
func DecodeMemWrite(p []byte) (MemWrite, error) {
	r := wire.NewReader("rcr: mem write", p)
	w := MemWrite{Write: readCapWrite(r)}
	w.Epoch = r.U64()
	w.Frame = readMemFrame(r, w.Epoch)
	return wire.Done(r, w)
}

// readMemFrame reads the length-prefixed membership frame that ends
// MEMW and MEMA — at most MaxMemFrame bytes, present exactly when epoch
// is non-zero — and returns a copy, nil when absent.
func readMemFrame(r *wire.Reader, epoch uint64) []byte {
	n := r.Count32(MaxMemFrame)
	if (epoch == 0) != (n == 0) {
		r.Fail("epoch %d with a %d-byte frame", epoch, n)
	}
	return append([]byte(nil), r.Bytes(n)...)
}

// AppendMemAck appends a's strict MEMA encoding to dst.
func AppendMemAck(dst []byte, a MemAck) []byte {
	dst = AppendCapAck(dst, a.Ack)
	dst = binary.LittleEndian.AppendUint64(dst, a.MemFence)
	dst = binary.LittleEndian.AppendUint64(dst, a.MemEpoch)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(a.Frame)))
	return append(dst, a.Frame...)
}

// DecodeMemAck strictly decodes a MEMA payload.
func DecodeMemAck(p []byte) (MemAck, error) {
	r := wire.NewReader("rcr: mem ack", p)
	a := MemAck{Ack: readCapAck(r)}
	a.MemFence = r.U64()
	a.MemEpoch = r.U64()
	a.Frame = readMemFrame(r, a.MemEpoch)
	if a.MemEpoch == 0 && a.MemFence != 0 {
		r.Fail("fence %d without an epoch", a.MemFence)
	}
	return wire.Done(r, a)
}

// MemSupersedes is the authority order of membership records, stated
// once: a record committed under fence at epoch replaces one held under
// (heldFence, heldEpoch) when its fence is higher — fences are totally
// ordered across leaders, so a successor's first commit supersedes
// everything a deposed leader stored, whatever its epoch numbering — or,
// under the same fence, when its registry epoch is. An equal pair is a
// replay and does not supersede.
func MemSupersedes(fence, epoch, heldFence, heldEpoch uint64) bool {
	return fence > heldFence || (fence == heldFence && epoch > heldEpoch)
}

// OfferMem decides one membership commit: the carrier CapWrite goes
// through the ordinary fence rules, and only an accepted write may
// store its frame — and then only if (fence, epoch) supersedes what is
// already stored, so replays and a deposed leader's stale records are
// refused even if they somehow ride an accepted write. The ack always
// returns the stored record (a copy), making every renewal a fetch.
func (g *FenceGuard) OfferMem(w MemWrite) MemAck {
	now := g.clock()
	g.mu.Lock()
	defer g.mu.Unlock()
	ack := g.offerLocked(w.Write, now)
	if ack.Status != CapFenceRejected && w.Epoch > 0 && len(w.Frame) <= MaxMemFrame {
		if MemSupersedes(w.Write.Fence, w.Epoch, g.memFence, g.memEpoch) {
			g.memFence, g.memEpoch = w.Write.Fence, w.Epoch
			g.memFrame = append(g.memFrame[:0], w.Frame...)
			g.mirrorLocked()
		}
	}
	return MemAck{Ack: ack, MemFence: g.memFence, MemEpoch: g.memEpoch,
		Frame: append([]byte(nil), g.memFrame...)}
}

// WriteMem performs one fenced membership write ("MEM\n" op) against
// addr. Like WriteCap, a transport failure is an error while a fence
// rejection comes back in the ack. The ack's Frame is a copy
// (readMemFrame): the response buffer is the connection's, reused.
func WriteMem(ctx context.Context, network, addr string, w MemWrite) (MemAck, error) {
	return exchange(ctx, network, addr, "MEM\n", &w,
		capAckLen+20, capAckLen+20+MaxMemFrame, DecodeMemAck)
}

package cluster

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/rcr"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// HA control plane (docs/cluster.md §HA). N aggregator replicas watch
// the same shard fleet through their own delta subscriptions; exactly
// one — the lease holder — pushes caps. There is no coordination
// service: the shard fleet itself is the quorum. Every fenced cap write
// doubles as a lease renewal, every shard's FenceGuard mirrors its
// lease state into the shard blackboard, and every standby learns that
// state passively through the delta stream it already consumes.
//
// Leadership protocol:
//
//   - The leader renews its lease by writing to every shard each poll
//     (changed caps carry the new bound; unchanged shards get a
//     lease-only write). Renewal on a majority extends the lease one
//     TTL from the poll's start. A leader that cannot renew a majority
//     steps down when its lease runs out; a leader that sees a higher
//     fence — in an ack or in a shard's mirrored meters — steps down
//     immediately and stops writing.
//   - A standby watches the freshest lease expiry the fleet reports.
//     Once host time passes expiry + grace it schedules a candidacy
//     after a deterministic per-replica jitter (so replicas don't
//     stampede), then campaigns: fence = highest-observed + 1, written
//     to every shard. A majority of grants makes it leader; a failed
//     campaign releases whatever minority it won so the real winner
//     need not wait out the TTL.
//   - A promoted standby adopts the fleet's committed assignment — from
//     the campaign acks (every ack reports the shard's applied cap) and
//     the mirrored fencedcap meters — and replays it under its own
//     fence before computing any new partition, so the conservation
//     invariant Σ(applied) ≤ budget holds across the hand-off: the new
//     leader's baseline is what the shards actually hold, not a guess.
//   - The leader also replicates the fleet's committed membership
//     record under its fence (rcr.MemWrite), and a promoted standby
//     adopts the most authoritative record its campaign acks return —
//     ordered by (fence, epoch), because fences are totally ordered
//     across leaders while epochs are only ordered within one
//     registry's history. A deposed leader's stale membership view
//     therefore can never reintroduce a departed shard and double-spend
//     its watts: its commits carry a dead fence.
//
// Shards enforce the fence (rcr.FenceGuard): a write from a demoted
// leader — lower fence, or equal fence after a takeover — is rejected
// no matter how delayed its delivery, which is what makes split-brain
// windows safe: both replicas may *believe* they lead, but the fleet
// applies caps from at most one.

// HAConfig tunes one replica of the redundant control plane.
type HAConfig struct {
	// ID identifies this replica in fence ownership; required non-zero
	// and unique across replicas.
	ID uint32
	// LeaseTTL is the lease duration requested with every fenced write.
	// Zero selects 6× the poll period.
	LeaseTTL time.Duration
	// Grace is how long past the observed lease expiry a standby waits
	// before scheduling its candidacy — headroom for a renewal that is
	// merely late in the delta stream. Zero selects LeaseTTL/4.
	Grace time.Duration
	// JitterSeed seeds the deterministic election jitter (0..Grace)
	// that separates replicas' candidacies.
	JitterSeed uint64
	// WriteMem performs one fenced write against a shard through the
	// membership piggyback op: rcr.WriteMem over the shard's socket in
	// production, the guard's OfferMem behind the fault injector in the
	// scenario runner. Campaign probes fetch each shard's committed
	// membership record in the ack, and the leader attaches the
	// registry's current record to writes against shards whose acked
	// record is behind. Required.
	WriteMem func(shard int, mw rcr.MemWrite) (rcr.MemAck, error)
}

func (a *controlCore) leaseTTL() time.Duration {
	if ttl := a.cfg.HA.LeaseTTL; ttl > 0 {
		return ttl
	}
	return 6 * a.cfg.Period
}

func (a *controlCore) electionGrace() time.Duration {
	if g := a.cfg.HA.Grace; g > 0 {
		return g
	}
	return a.leaseTTL() / 4
}

// electionJitter advances the replica's deterministic jitter stream and
// returns a delay in [0, grace).
func (a *controlCore) electionJitter() time.Duration {
	a.jitterState = splitmix64ha(a.jitterState)
	grace := a.electionGrace()
	if grace <= 0 {
		return 0
	}
	return time.Duration(a.jitterState % uint64(grace))
}

func splitmix64ha(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// haStep is the HA replica's per-poll leadership step: fold observed
// lease state, then act as leader (renew + push) or standby (watch +
// campaign). Called from Poll after observe/health. Reports whether any
// cap changed.
func (a *controlCore) haStep(now time.Duration) bool {
	// Fold the lease state the shards mirror through their streams.
	for _, st := range a.shards {
		if st.obsFence > a.knownFence {
			a.knownFence = st.obsFence
		}
		if st.obsExpiry > a.obsExpiry {
			a.obsExpiry = st.obsExpiry
			if !a.leader {
				// Someone's lease is being renewed: stand down any
				// scheduled candidacy.
				a.candidateAt = 0
			}
		}
	}
	if len(a.shards) == 0 {
		return false
	}
	if !a.leader {
		a.standbyStep(now)
	}
	if a.leader {
		return a.leaderStep(now)
	}
	return false
}

// standbyStep watches the lease and campaigns once it has demonstrably
// lapsed. May promote the replica (a.leader) so the same poll can push.
func (a *controlCore) standbyStep(now time.Duration) {
	if now <= a.obsExpiry+a.electionGrace() {
		a.candidateAt = 0
		return
	}
	if a.candidateAt == 0 {
		a.candidateAt = now + a.electionJitter()
		return
	}
	if now < a.candidateAt {
		return
	}
	a.elect(now)
}

// writeFenced performs one fenced write against a shard and records
// the membership record its ack reports. The frame, if any, is attached
// by the caller via mw.
func (a *controlCore) writeFenced(st *shardState, mw rcr.MemWrite) (rcr.MemAck, error) {
	mack, err := a.cfg.HA.WriteMem(st.id, mw)
	if err == nil && rcr.MemSupersedes(mack.MemFence, mack.MemEpoch, st.memAckFence, st.memAckEpoch) {
		st.memAckFence, st.memAckEpoch = mack.MemFence, mack.MemEpoch
	}
	return mack, err
}

// elect campaigns for the fleet lease with a fresh fence. On a majority
// of grants the replica promotes itself, adopts the most authoritative
// committed membership record its grants returned, and schedules a
// replay of the fleet's committed assignment; on a minority it releases
// what it won.
func (a *controlCore) elect(now time.Duration) {
	ha := a.cfg.HA
	ttl := a.leaseTTL()
	fence := a.knownFence + 1
	if fence <= a.fence {
		fence = a.fence + 1
	}
	// A fresh fence opens a fresh write-sequence stream, and obsoletes
	// any of our old writes still in flight: once this fence lands on a
	// shard, its guard rejects them as stale, so the pending pessimism
	// can be dropped.
	a.seq = 0
	for _, st := range a.shards {
		st.pendingCap, st.pendingSeq = 0, 0
		st.granted = false
	}
	// Baseline adoption starts from the mirrored fencedcap meters; the
	// campaign acks below override with each reachable shard's
	// authoritative value.
	for i, st := range a.shards {
		if st.obsHasCap {
			a.applied[i] = units.Watts(st.obsCap)
		}
	}
	fleet := len(a.shards)
	var granted []int
	var bestFence, bestEpoch uint64
	var bestFrame []byte
	for i, st := range a.shards {
		w := rcr.CapWrite{Fence: fence, Leader: ha.ID, Lease: ttl, Seq: a.nextSeq()}
		mack, err := a.writeFenced(st, rcr.MemWrite{Write: w})
		if err != nil {
			continue
		}
		ack := mack.Ack
		// Every reachable shard's ack carries its guard's committed
		// membership record — grant or refusal alike: the record's
		// authority is its (fence, epoch), not this campaign's outcome.
		if mack.MemEpoch > 0 && rcr.MemSupersedes(mack.MemFence, mack.MemEpoch, bestFence, bestEpoch) {
			bestFence, bestEpoch, bestFrame = mack.MemFence, mack.MemEpoch, mack.Frame
		}
		if ack.HasApplied {
			a.applied[i] = units.Watts(ack.Applied)
		}
		if ack.Status == rcr.CapApplied {
			granted = append(granted, i)
			st.granted = true
			continue
		}
		// Lost this shard: learn who actually holds it.
		if ack.Fence > a.knownFence {
			a.knownFence = ack.Fence
		}
		if ack.Expiry > a.obsExpiry {
			a.obsExpiry = ack.Expiry
		}
	}
	a.candidateAt = 0
	// Adopt the most authoritative committed membership record the acks
	// returned — (fence, epoch) order — and reconcile the book against
	// it. This runs on *failed* campaigns too: a standby whose static
	// view is the seed fleet may be campaigning over members that have
	// long departed, and can never win a majority of that dead view; the
	// acks it did get teach it the committed fleet, so its next campaign
	// runs over the members that actually exist. A deposed leader's
	// record lost the (fence, epoch) comparison the moment its successor
	// committed anything.
	adoptBest := func() {
		if bestEpoch == 0 {
			return
		}
		var rec MembershipRecord
		if err := DecodeMembership(bestFrame, &rec); err == nil {
			a.members.Adopt(rec)
			if err := a.reconcileLocked(); err != nil {
				a.journal(telemetry.KindCapRetry, fmt.Sprintf("membership reconcile: %v", err))
			}
		}
	}
	if len(granted) < fleet/2+1 {
		// Minority: release the grants so the eventual winner need not
		// wait out our TTL on those shards, then adopt what the campaign
		// learned before the book is rebuilt under it.
		for _, i := range granted {
			st := a.shards[i]
			_, _ = a.writeFenced(st, rcr.MemWrite{Write: rcr.CapWrite{Fence: fence, Leader: ha.ID, Release: true, Seq: a.nextSeq()}})
		}
		adoptBest()
		return
	}
	// The quorum's grants carry the committed record; adopting before
	// promotion means the first partition this leader computes is over
	// the committed fleet, not this replica's possibly-stale local view.
	adoptBest()
	// A Joining member's inherited cap is its admission floor, whatever
	// its guard reports: a member re-joining under its prior identity
	// carries the committed cap of its previous life on its durable
	// ledger, but those watts were redistributed to the survivors when
	// it departed — the predecessor's conserving assignment covers the
	// joiner only at the floor its partition reserves. Re-committing the
	// residue would double-spend it on top of that redistribution.
	for i, st := range a.shards {
		if st.mstate == MemberJoining && a.applied[i] > a.cfg.Floor {
			st.residual = a.applied[i]
			a.applied[i] = a.cfg.Floor
		}
	}
	// Belt-and-braces: shards that granted above handed over their
	// authoritative caps (frozen from the grant on — a predecessor's
	// writes now bounce), but any not-yet-granted shard's value is a
	// mirrored-meter guess that the claiming phase will re-adopt on
	// grant. Scale the interim baseline back under the budget so no
	// intermediate read of the book ever reports an over-budget whole.
	if sum := float64(Sum(a.applied)); sum > float64(a.cfg.Global) {
		scale := float64(a.cfg.Global) / sum
		for i := range a.applied {
			a.applied[i] = units.Watts(float64(a.applied[i]) * scale)
		}
	}
	a.leader = true
	a.fence = fence
	if fence > a.knownFence {
		a.knownFence = fence
	}
	a.leaseUntil = now + ttl
	a.replay = true
	a.elections++
	a.met.elections.Inc()
	a.met.isLeader.Set(1)
	a.journal(telemetry.KindLeaderElected,
		fmt.Sprintf("replica %d fence %d: %d/%d grants, adopted %.1f W committed",
			ha.ID, fence, len(granted), fleet, float64(Sum(a.applied))))
}

// demote surrenders leadership. The fence stays where it was — a
// demoted replica never reuses it — and any scheduled candidacy is
// cleared so the standby path re-evaluates from scratch.
func (a *controlCore) demote(reason string) {
	a.leader = false
	a.replay = false
	a.candidateAt = 0
	a.demotions++
	a.met.demotions.Inc()
	a.met.isLeader.Set(0)
	a.journal(telemetry.KindLeaderDemoted,
		fmt.Sprintf("replica %d fence %d: %s", a.cfg.HA.ID, a.fence, reason))
}

// leaderStep renews the lease and pushes the assignment: the adopted
// committed assignment first (replay, right after promotion), the
// freshly partitioned one otherwise.
func (a *controlCore) leaderStep(now time.Duration) bool {
	if a.knownFence > a.fence {
		a.demote(fmt.Sprintf("superseded by fence %d", a.knownFence))
		return false
	}
	if now >= a.leaseUntil {
		a.demote("lease expired unrenewed")
		return false
	}
	var next []units.Watts
	if a.replay {
		// Re-assert what the fleet already holds under our fence before
		// issuing anything new: the promoted standby's first writes must
		// not move any cap, only re-commit the inherited assignment.
		a.nextCaps = append(a.nextCaps[:0], a.applied...)
		next = a.nextCaps
	} else {
		a.nextCaps = Partition(a.cfg.Global, a.reports, a.nextCaps)
		next = a.nextCaps
	}
	return a.pushFenced(next, now)
}

// membershipFrameLocked returns the registry's current record encoded
// as a CLSM frame, re-encoding only when the epoch has moved.
func (a *controlCore) membershipFrameLocked() ([]byte, uint64) {
	epoch := a.members.Epoch()
	if epoch != a.memFrameEpoch || a.memFrame == nil {
		rec := a.members.Record()
		frame, err := AppendMembership(a.memFrame[:0], &rec)
		if err != nil {
			return nil, 0
		}
		a.memFrame, a.memFrameEpoch = frame, rec.Epoch
	}
	return a.memFrame, a.memFrameEpoch
}

// pushFenced is push over the fenced write path: conservation-safe
// apply order, one bounded retry per transport failure, a lease-only
// renewal for every shard whose cap is unchanged, quorum-counted lease
// renewal, and immediate demotion when any ack reveals a higher fence.
// Transport-failed cap writes are tracked as pending — they may be held
// in flight, not lost — and suppress every increase until an ack proves
// the shard's seq barrier has passed them.
//
// Until every *Active* member's shard has granted this replica's
// fence, all writes stay lease-only (claiming phase). A deposed
// predecessor may still hold live leases on a minority and keep
// writing those shards by its own book, which is individually
// conserving but jointly unbounded against ours; deferring actuation
// until the fleet is exclusively fenced means at most one regime's
// caps are ever in flight, and each grant ack hands over that shard's
// authoritative committed cap, frozen from then on because the
// predecessor's writes bounce.
//
// Only Active and Draining members gate the claim, because only their
// actual caps are unknown-unbounded: Draining means the step-down is
// *in progress* — the member's guard may still hold its full pre-drain
// assignment if the decrease never landed. A Joining member is
// provably at or below its floor *in the book*: no regime raises a
// member before Activate (unhealthy shards water-fill nothing, a
// healthy joiner is activated promptly but never while a replay is
// pending), and its adopted baseline is clamped to the floor because a
// member re-joining under its prior identity carries the committed cap
// of its previous life on its durable ledger — watts the fleet already
// redistributed when it departed. A Drained member was stepped down
// with the ack observed — and can never rise again, because any leader
// stale enough to still think it deserves watts carries a fence older
// than the one that stepped it down, which the guard's durable fence
// ledger rejects. Those two states' guards hold at most Floor, and the
// partitioner's phase 1 reserves at least Floor for every shard in the
// book, so Σ(actual caps) ≤ Σ(next) ≤ global even while such a member
// is unreachable. Without this carve-out a crashed joiner (a member
// whose server is down until an operator decommissions it) would gate
// actuation of the whole fleet indefinitely. Individually, a shard
// that has not granted is never sent a cap, whatever its state.
//
// Each write also carries the registry's current membership record to
// any shard whose acked record is behind, so the committed membership
// is durable on a majority within one renewal round of the epoch
// moving.
func (a *controlCore) pushFenced(next []units.Watts, now time.Duration) bool {
	ha := a.cfg.HA
	ttl := a.leaseTTL()
	changed := false
	blocked := false // a decrease failed; increases must wait
	for _, st := range a.shards {
		if st.pendingCap > 0 {
			// One of our caps may still be in flight from an earlier
			// poll; until a fresher ack proves the guard's seq barrier
			// has passed it, every increase stays suppressed so that
			// Σ max(applied, pending) keeps to the budget.
			blocked = true
			break
		}
	}
	claiming := false
	for _, st := range a.shards {
		if (st.mstate == MemberActive || st.mstate == MemberDraining) && !st.granted {
			claiming = true
			break
		}
	}
	memFrame, memEpoch := a.membershipFrameLocked()
	memCommitted := a.memQuorumEpochLocked()
	renewed := 0
	// Order and pessimism run over the guards' PHYSICAL caps, not the
	// book: a re-joining member's guard still enforces its previous
	// life's cap until a this-life write lands, and its clamped book
	// entry (the floor) would let ApplyOrder raise the survivors before
	// that residue has been stepped down — a real, wattmeter-visible
	// overshoot even though the book never exceeds the budget.
	eff := append(a.eff[:0], a.applied...)
	for i, st := range a.shards {
		if st.residual > eff[i] {
			eff[i] = st.residual
		}
	}
	a.eff = eff
	a.order = ApplyOrder(eff, next, a.order)
	for _, i := range a.order {
		st := a.shards[i]
		if a.cfg.Clock() >= a.leaseUntil {
			// The lease ran out mid-push: every further write would be a
			// stale-fence hazard. Stop; the expiry check next poll demotes.
			break
		}
		w := rcr.CapWrite{Fence: a.fence, Leader: ha.ID, Lease: ttl}
		decrease := next[i] < eff[i]
		wantCap := a.replay || next[i] != a.applied[i]
		if st.mstate == MemberJoining && !st.capLanded {
			// A joiner is promoted only after a cap write lands on its
			// current incarnation (Poll), so force one even when next
			// equals the adopted baseline: a lease-only ack can set the
			// book to the floor without any write having reached this
			// life's guard, and until one does the guard's durable ledger
			// may still hold a previous life's cap — watts the fleet
			// already redistributed, which a successor must not re-adopt.
			wantCap = true
		}
		if blocked && next[i] > eff[i] {
			wantCap = false // the unacknowledged decrease still holds its watts
		}
		if !st.granted {
			// Never actuate a shard that has not granted this fence. With
			// membership churn the book legitimately holds members whose
			// servers are down — a crashed joiner, a stopped drainer
			// awaiting decommission — and a cap write to one of those can
			// only fail transport and poison the pending-increase
			// pessimism for the whole fleet. Lease-only probes until the
			// shard grants; its first grant hands over the authoritative
			// cap and the next poll actuates it.
			wantCap = false
		} else if claiming && next[i] != a.applied[i] {
			// No cap *changes* until the fleet is exclusively ours. A
			// re-commit of a granted shard's adopted value is exempt: the
			// shard is already fenced to us, the value is its authoritative
			// committed cap, and writing it back moves nothing — it only
			// commits the inherited assignment under the new fence.
			wantCap = false
		} else if wantCap && st.stateEpoch > memCommitted {
			// The registry change that put this member in its current
			// state is not yet durable on a quorum of guards. Writing it a
			// cap now would orphan those watts if this leader died: a
			// successor elected from a quorum that missed the change
			// adopts a record without it (or with its old state) and
			// partitions the full budget over what it can see, while this
			// shard's guard keeps holding what we wrote. Hold the write —
			// the frame rides the next renewals, the quorum acks within a
			// round or two, and the cap follows. A withheld *decrease*
			// must still suppress this poll's increases, exactly as a
			// transport-failed decrease does: the leaver's watts have not
			// actually come back to the pool yet.
			wantCap = false
			if decrease {
				blocked = true
			}
		}
		if wantCap && next[i] > 0 {
			w.HasCap, w.Cap = true, float64(next[i])
		}
		ack, usedSeq, err := a.writeCapRetry(st, w, memEpoch, memFrame)
		if err != nil {
			a.met.capErrors.Inc()
			if w.HasCap {
				// The write may be held in flight, not lost: remember the
				// largest cap that might still land and the last seq it
				// could ride in on.
				if w.Cap > st.pendingCap {
					st.pendingCap = w.Cap
				}
				st.pendingSeq = usedSeq
			}
			if decrease {
				blocked = true
			}
			continue
		}
		if st.pendingSeq != 0 && st.pendingSeq < usedSeq {
			// This ack proves the guard's seq barrier has moved past every
			// pending write for this shard: none of them can apply now.
			st.pendingCap, st.pendingSeq = 0, 0
		}
		if ack.Status == rcr.CapFenceRejected {
			if ack.Fence > a.knownFence {
				a.knownFence = ack.Fence
			}
			if ack.Fence < a.fence {
				// A hold-out: the shard still honours a predecessor's live
				// lease, so our (higher) fence was refused outright. Not a
				// supersession — keep leading the majority, keep probing;
				// the predecessor cannot renew a quorum, its lease runs
				// out, and the shard grants on a later poll.
				continue
			}
			// Either a successor's higher fence, or our own fence number
			// burned on this shard by a failed rival's released grant —
			// the guard pins a fence to its first holder forever, so an
			// equal-fence rejection can never lapse back to us. Both cases
			// read the same: this fence cannot drive the whole fleet again.
			// Surrender now and re-campaign with a fresh fence rather than
			// leave the shard orphaned until the lease runs out.
			a.demote(fmt.Sprintf("shard %d acked fence %d holder %d (ours %d)",
				st.id, ack.Fence, ack.Holder, a.fence))
			return changed
		}
		st.granted = true // the guard accepted our fence for this shard
		renewed++         // CapApplied and CapApplyFailed both renew the lease
		if ack.Status == rcr.CapApplied && w.HasCap {
			if a.applied[i] != next[i] {
				changed = true
			}
			a.applied[i] = next[i]
			st.capLanded = true
			st.residual = 0 // this life's guard now holds the book value
		} else if ack.HasApplied {
			// Lease-only ack (or refused actuation): adopt the shard's
			// authoritative committed cap. For a Joining member the
			// adoption is clamped to the floor: a re-joining guard
			// reports its previous life's committed cap, and those watts
			// were already redistributed when it departed — adopting them
			// here would make the next replay re-commit a double-spend
			// (see elect).
			v := units.Watts(ack.Applied)
			if st.mstate == MemberJoining && v > a.cfg.Floor {
				st.residual = v
				v = a.cfg.Floor
			}
			a.applied[i] = v
		}
		if ack.Status == rcr.CapApplyFailed && decrease {
			blocked = true
		}
	}
	if renewed >= len(a.shards)/2+1 {
		a.leaseUntil = now + ttl
		// Replay is done only once a poll that was allowed to carry caps
		// (claiming over, at the poll's start, so every write above
		// re-asserted the inherited assignment) renews the quorum clean.
		if a.replay && !blocked && !claiming {
			a.replay = false
		}
	}
	if changed {
		a.met.repartitions.Inc()
		a.journal(telemetry.KindRepartition,
			fmt.Sprintf("fence %d caps sum %.1f W of %.1f W budget", a.fence, float64(Sum(a.applied)), float64(a.cfg.Global)))
	}
	return changed
}

// memQuorumEpochLocked returns the highest registry epoch that a
// quorum of the current book's guards have durably acked — the
// quorum-th largest of the per-shard acked epochs. Epochs from
// different registry lineages compare soundly because Adopt renumbers
// monotonically above anything it absorbs.
func (a *controlCore) memQuorumEpochLocked() uint64 {
	n := len(a.shards)
	if n == 0 {
		return 0
	}
	if cap(a.memEpochScratch) < n {
		a.memEpochScratch = make([]uint64, n)
	}
	es := a.memEpochScratch[:n]
	for i, st := range a.shards {
		es[i] = st.memAckEpoch
	}
	slices.Sort(es)
	return es[n-(n/2+1)]
}

// MembershipDurable reports whether the registry's current epoch is
// acked by a quorum of the fleet's guards — i.e. whether every
// membership change made so far would survive this replica's failure
// and be adopted by any successor elected from a quorum. Admin flows
// (join/drain/decommission) should wait for this before treating an
// operation as complete. Always true without HA, where membership is
// not replicated at all.
func (a *controlCore) MembershipDurable() bool {
	if a.cfg.HA == nil {
		return true
	}
	return a.memQuorumEpochLocked() >= a.members.Epoch()
}

// nextSeq advances the per-fence write-sequence counter. Every write
// gets its own seq — retries included — so the shard guards can order
// delayed deliveries against fresher writes.
func (a *controlCore) nextSeq() uint64 {
	a.seq++
	return a.seq
}

// writeCapRetry performs one fenced write with a single bounded
// immediate retry on transport failure (the fenced-path counterpart of
// push's cap_retry). It assigns each attempt a fresh seq and reports
// the last one used, so the caller can track what may still be in
// flight. The membership frame rides along to any shard whose acked
// record is behind the registry's current (fence, epoch).
func (a *controlCore) writeCapRetry(st *shardState, w rcr.CapWrite, memEpoch uint64, memFrame []byte) (rcr.CapAck, uint64, error) {
	attempt := func() (rcr.CapAck, uint64, error) {
		w.Seq = a.nextSeq()
		mw := rcr.MemWrite{Write: w}
		if memEpoch > 0 && rcr.MemSupersedes(a.fence, memEpoch, st.memAckFence, st.memAckEpoch) {
			mw.Epoch, mw.Frame = memEpoch, memFrame
		}
		mack, err := a.writeFenced(st, mw)
		return mack.Ack, w.Seq, err
	}
	ack, seq, err := attempt()
	if err == nil {
		return ack, seq, nil
	}
	a.met.capRetries.Inc()
	a.journal(telemetry.KindCapRetry,
		fmt.Sprintf("shard %d fence %d: %v", st.id, w.Fence, err))
	return attempt()
}

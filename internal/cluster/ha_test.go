package cluster

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/rcr"
	"repro/internal/resilience/leak"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// haApply is one audited cap actuation at a shard's fence guard.
type haApply struct {
	shard int
	fence uint64
	cap   float64
}

// haAudit is the independent invariant monitor behind every guard's
// apply seam: conservation after every single actuation, plus the full
// apply log for hand-off and fencing analysis.
type haAudit struct {
	budget float64
	caps   []float64
	log    []haApply
	bad    int
}

func (au *haAudit) applyFn(shard int) func(cap float64, fence uint64) error {
	return func(cap float64, fence uint64) error {
		au.caps[shard] = cap
		au.log = append(au.log, haApply{shard: shard, fence: fence, cap: cap})
		sum := 0.0
		for _, c := range au.caps {
			sum += c
		}
		if sum > au.budget+sumEps {
			au.bad++
		}
		return nil
	}
}

// haReplica is one replica's control core, stepped synchronously over
// pushed snapshots and the shared guard fleet, with a blockable /
// holdable write path.
type haReplica struct {
	agg     *controlCore
	snaps   []*rcr.Snapshot // per shard; nil until the first feed
	journal *telemetry.Journal

	blocked bool // partition: every write fails
	holding bool // split-brain: writes queue for late delivery
	held    []heldMemWrite
}

type heldMemWrite struct {
	shard int
	w     rcr.MemWrite
}

// flushHeld delivers the replica's queued writes (the split-brain
// window closing) and returns the acks.
func (r *haReplica) flushHeld(guards []*rcr.FenceGuard) []rcr.CapAck {
	held := r.held
	r.held = nil
	acks := make([]rcr.CapAck, 0, len(held))
	for _, hw := range held {
		acks = append(acks, guards[hw.shard].OfferMem(hw.w).Ack)
	}
	return acks
}

// haHarness wires N replica cores over one shared fleet of fence guards
// on a manual clock: no stream, no goroutine, every poll the test's own.
type haHarness struct {
	clock  *fakeClock
	reg    *telemetry.Registry
	audit  *haAudit
	guards []*rcr.FenceGuard
	reps   []*haReplica
	shards int
}

func newHAHarness(t testing.TB, replicas, shards int, global units.Watts) *haHarness {
	t.Helper()
	h := &haHarness{
		clock:  &fakeClock{},
		reg:    telemetry.NewRegistry(),
		audit:  &haAudit{budget: float64(global), caps: make([]float64, shards)},
		shards: shards,
	}
	h.guards = make([]*rcr.FenceGuard, shards)
	for i := range h.guards {
		h.guards[i] = rcr.NewFenceGuard(h.clock.now, h.audit.applyFn(i))
		h.guards[i].Instrument(h.reg)
	}
	endpoints := make([]ShardEndpoint, shards)
	for i := range endpoints {
		endpoints[i] = ShardEndpoint{ID: i, Network: "unix", Addr: fmt.Sprintf("shard-%d", i)}
	}
	for r := 0; r < replicas; r++ {
		rep := &haReplica{journal: telemetry.NewJournal(1024, 1), snaps: make([]*rcr.Snapshot, shards)}
		agg, err := newControlCore(AggregatorConfig{
			Shards:        endpoints,
			Global:        global,
			Floor:         10,
			Max:           200,
			HealthHorizon: time.Hour, // health churn is not under test here
			Clock:         h.clock.now,
			Telemetry:     h.reg,
			Journal:       rep.journal,
			HA: &HAConfig{
				ID:         uint32(r + 1),
				LeaseTTL:   time.Second,
				Grace:      250 * time.Millisecond,
				JitterSeed: uint64(1000 * (r + 1)),
				WriteMem: func(shard int, w rcr.MemWrite) (rcr.MemAck, error) {
					if rep.blocked {
						return rcr.MemAck{}, errors.New("injected partition")
					}
					if rep.holding {
						rep.held = append(rep.held, heldMemWrite{shard: shard, w: w})
						return rcr.MemAck{}, errors.New("injected timeout (write held)")
					}
					return h.guards[shard].OfferMem(w), nil
				},
			},
		}, pushedSources(rep.snaps), nil)
		if err != nil {
			t.Fatal(err)
		}
		rep.agg = agg
		h.reps = append(h.reps, rep)
	}
	return h
}

// feedAll hands every replica one moving-heartbeat snapshot per shard.
func (h *haHarness) feedAll(beat float64) {
	now := h.clock.now()
	for _, rep := range h.reps {
		for i := range rep.snaps {
			conc := 4.0
			if i%2 == 0 {
				conc = 26
			}
			snap := shardSnap(beat, 80, conc, now)
			rep.snaps[i] = &snap
		}
	}
}

// pollAll steps every replica once, in replica order.
func (h *haHarness) pollAll() {
	for _, rep := range h.reps {
		rep.agg.Poll()
	}
}

// electFirst walks a virgin fleet to its first leader in exactly four
// rounds of polls — observe the fleet, pass the grace (candidacies get
// scheduled), pass every possible jitter (jitter < grace: whoever
// campaigns first wins, the rival is rejected by the live lease), then
// one more round in which the winner, its replay done, partitions — and
// returns the leader's index.
func (h *haHarness) electFirst(t testing.TB) int {
	t.Helper()
	h.feedAll(1)
	h.pollAll()
	for r, rep := range h.reps {
		if n := rep.agg.Status().Healthy; n != h.shards {
			t.Fatalf("replica %d sees %d/%d shards after one poll", r, n, h.shards)
		}
	}
	h.clock.advance(300 * time.Millisecond) // > grace
	h.pollAll()
	h.clock.advance(260 * time.Millisecond) // > max jitter
	h.pollAll()
	if n := len(h.leaders()); n != 1 {
		t.Fatalf("%d leaders after the campaign round, want 1", n)
	}
	first := h.leaders()[0]
	h.pollAll()
	if sum := h.reps[first].agg.Status().CapsSum; sum <= 0 {
		t.Fatalf("leader assigned Σ%.1f W one poll after its replay", float64(sum))
	}
	return first
}

// campaign walks one standby through a whole candidacy in exactly two
// polls: the first past the lease expiry it observed plus grace, which
// schedules the candidacy; the second at the scheduled instant, which
// runs it.
func (h *haHarness) campaign(rep *haReplica) {
	c := rep.agg
	if due := c.obsExpiry + c.electionGrace() + time.Millisecond; due > h.clock.now() {
		h.clock.advance(due - h.clock.now())
	}
	c.Poll()
	h.clock.advance(c.candidateAt - h.clock.now())
	c.Poll()
}

func (h *haHarness) leaders() []int {
	var out []int
	for r, rep := range h.reps {
		if rep.agg.Status().Leader {
			out = append(out, r)
		}
	}
	return out
}

func journalHas(j *telemetry.Journal, kind string) int {
	n := 0
	for _, d := range j.Entries() {
		if d.Kind == kind {
			n++
		}
	}
	return n
}

// TestHAElectionSingleWinner: two standby replicas over a virgin fleet
// elect exactly one leader; the loser's rival campaign is fenced out by
// the shards, and the winner partitions the budget under conservation.
func TestHAElectionSingleWinner(t *testing.T) {
	leak.Check(t)
	h := newHAHarness(t, 2, 3, 150)
	h.electFirst(t)

	// Keep polling: leadership must stay single.
	for k := 0; k < 5; k++ {
		h.clock.advance(50 * time.Millisecond)
		h.pollAll()
		if n := len(h.leaders()); n != 1 {
			t.Fatalf("%d leaders after settle poll %d", n, k)
		}
	}
	if got := h.reg.Counter("cluster_leader_elections_total").Value(); got != 1 {
		t.Errorf("%d elections, want exactly 1", got)
	}
	leader := h.reps[h.leaders()[0]]
	if journalHas(leader.journal, telemetry.KindLeaderElected) != 1 {
		t.Error("winning campaign not journaled")
	}
	st := leader.agg.Status()
	if st.CapsSum <= 0 || float64(st.CapsSum) > 150+sumEps {
		t.Errorf("leader caps sum %.1f W", float64(st.CapsSum))
	}
	if h.audit.bad != 0 {
		t.Errorf("%d conservation violations", h.audit.bad)
	}
	// The compute-bound shard (odd index) outranks the memory-bound ones.
	if st.Caps[1] <= st.Caps[0] {
		t.Errorf("headroom ignored under HA: caps %v", st.Caps)
	}
}

// TestHAHandoffReplaysCommittedAssignment: the leader dies mid-flight;
// the promoted standby adopts the committed assignment from campaign
// acks and re-asserts it verbatim — under its own fence — before any
// new partition, and conservation holds across the entire hand-off.
func TestHAHandoffReplaysCommittedAssignment(t *testing.T) {
	leak.Check(t)
	h := newHAHarness(t, 2, 3, 150)
	first := h.electFirst(t)
	standby := 1 - first
	committed := make([]float64, h.shards)
	copy(committed, h.audit.caps)

	// The leader dies: its write path is severed and it stops polling.
	h.reps[first].blocked = true
	fenceBefore := h.reps[first].agg.Status().Fence
	preHandoffApplies := len(h.audit.log)

	// Let the lease lapse, then drive only the standby.
	h.clock.advance(1100 * time.Millisecond) // > TTL: shard leases expire
	h.campaign(h.reps[standby])

	st := h.reps[standby].agg.Status()
	if !st.Leader {
		t.Fatal("standby not promoted by its campaign over a lapsed lease")
	}
	if st.Fence <= fenceBefore {
		t.Fatalf("promoted fence %d not above the dead leader's %d", st.Fence, fenceBefore)
	}
	// The first cap-carrying applies under the new fence must re-assert
	// the committed assignment exactly — replay before repartition.
	log := h.audit.log[preHandoffApplies:]
	replayed := map[int]bool{}
	for _, ap := range log {
		if ap.fence != st.Fence {
			t.Fatalf("apply %+v under unexpected fence (want %d)", ap, st.Fence)
		}
		if !replayed[ap.shard] {
			if ap.cap != committed[ap.shard] {
				t.Fatalf("shard %d first post-handoff cap %.1f W, want the committed %.1f W",
					ap.shard, ap.cap, committed[ap.shard])
			}
			replayed[ap.shard] = true
		}
	}
	if len(replayed) != h.shards {
		t.Fatalf("replay reached %d/%d shards", len(replayed), h.shards)
	}
	if h.audit.bad != 0 {
		t.Errorf("%d conservation violations across hand-off", h.audit.bad)
	}
	if journalHas(h.reps[standby].journal, telemetry.KindLeaderElected) != 1 {
		t.Error("promotion not journaled")
	}
}

// TestHASplitBrainFencedOut: the leader is isolated mid-window — it
// still believes it leads while its writes hang in the network. The
// standby takes over with a higher fence; when the old leader's held
// writes finally arrive they are all fence-rejected, and the old leader
// demotes itself the moment its lease runs out unrenewed.
func TestHASplitBrainFencedOut(t *testing.T) {
	leak.Check(t)
	h := newHAHarness(t, 2, 3, 150)
	first := h.electFirst(t)
	standby := 1 - first

	// Split-brain window opens: the leader's writes are held in flight.
	h.reps[first].holding = true
	// The isolated leader keeps polling inside its lease — it still
	// believes it leads and keeps issuing (held) writes.
	h.clock.advance(200 * time.Millisecond)
	h.reps[first].agg.Poll()
	if !h.reps[first].agg.Status().Leader {
		t.Fatal("leader gave up inside its own lease")
	}
	// Its lease lapses unrenewed: self-demotion, no more writes.
	h.clock.advance(900 * time.Millisecond)
	h.reps[first].agg.Poll()
	if h.reps[first].agg.Status().Leader {
		t.Fatal("leader outlived its unrenewed lease")
	}
	if journalHas(h.reps[first].journal, telemetry.KindLeaderDemoted) == 0 {
		t.Error("demotion not journaled")
	}

	// The standby takes over.
	h.campaign(h.reps[standby])
	if !h.reps[standby].agg.Status().Leader {
		t.Fatal("standby not promoted by its campaign over a lapsed lease")
	}
	newFence := h.reps[standby].agg.Status().Fence

	// The window closes: the old leader's stale writes finally arrive.
	rejectsBefore := h.reg.Counter("cluster_fence_rejects_total").Value()
	appliesBefore := len(h.audit.log)
	acks := h.reps[first].flushHeld(h.guards)
	if len(acks) == 0 {
		t.Fatal("split-brain window held no writes")
	}
	for _, ack := range acks {
		if ack.Status != rcr.CapFenceRejected {
			t.Fatalf("stale write accepted after takeover: %+v", ack)
		}
		if ack.Fence < newFence {
			t.Fatalf("guard reports fence %d below the new leader's %d", ack.Fence, newFence)
		}
	}
	if got := h.reg.Counter("cluster_fence_rejects_total").Value(); got != rejectsBefore+uint64(len(acks)) {
		t.Errorf("fence rejects %d, want %d", got, rejectsBefore+uint64(len(acks)))
	}
	if got := len(h.audit.log); got != appliesBefore {
		t.Fatalf("%d caps applied by the demoted leader's stale writes", got-appliesBefore)
	}
	if h.audit.bad != 0 {
		t.Errorf("%d conservation violations", h.audit.bad)
	}
}

// TestHAStandbyObservesLeaseThroughMeters: a standby whose streams
// carry a live mirrored lease never campaigns, no matter how long it
// waits; once the mirrored expiry lapses, it does.
func TestHAStandbyObservesLeaseThroughMeters(t *testing.T) {
	leak.Check(t)
	h := newHAHarness(t, 1, 2, 100)
	rep := h.reps[0]

	leaseSnap := func(beat float64, fence uint64, expiry time.Duration, now time.Duration) rcr.Snapshot {
		s := shardSnap(beat, 80, 10, now)
		s.System = append(s.System,
			rcr.MeterValue{Name: rcr.MeterFence, Value: float64(fence), Updated: now},
			rcr.MeterValue{Name: rcr.MeterLeaseHolder, Value: 99, Updated: now},
			rcr.MeterValue{Name: rcr.MeterLeaseExpiry, Value: expiry.Seconds(), Updated: now},
			rcr.MeterValue{Name: rcr.MeterFencedCap, Value: 50, Updated: now},
		)
		return s
	}
	// Another replica (id 99) holds the lease until t=10s. Its writes
	// committed 50 W and this fleet's membership record on every guard.
	rec := rep.agg.members.Record()
	frame, err := AppendMembership(nil, &rec)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range h.guards {
		g.OfferMem(rcr.MemWrite{
			Write: rcr.CapWrite{Fence: 7, Leader: 99, Lease: 10 * time.Second, Seq: 1, HasCap: true, Cap: 50},
			Epoch: rec.Epoch, Frame: frame,
		})
		snap := leaseSnap(1, 7, 10*time.Second, h.clock.now())
		rep.snaps[i] = &snap
	}
	h.audit.log = nil
	rep.agg.Poll()
	if n := rep.agg.Status().Healthy; n != 2 {
		t.Fatalf("%d/2 shards observed after one poll", n)
	}
	for k := 0; k < 6; k++ {
		h.clock.advance(time.Second) // far past grace — but the lease is live
		rep.agg.Poll()
	}
	if rep.agg.Status().Leader || rep.agg.Status().Elections != 0 {
		t.Fatalf("standby campaigned against a live mirrored lease: %+v", rep.agg.Status())
	}
	// t=6s now; the mirrored lease runs to 10s. Walk past it plus grace.
	h.clock.advance(4500 * time.Millisecond)
	h.campaign(rep)
	st := rep.agg.Status()
	if !st.Leader {
		t.Fatal("standby never campaigned after the mirrored lease lapsed")
	}
	if st.Fence <= 7 {
		t.Fatalf("campaign fence %d not above the observed 7", st.Fence)
	}
	// It adopted the mirrored committed cap as its baseline: the replay
	// re-asserts 50 W per shard.
	log := h.audit.log
	if len(log) == 0 || log[0].cap != 50 {
		t.Fatalf("replay did not re-assert the mirrored 50 W committed cap: %+v", log)
	}
}

// TestHAValidation: HA config validation.
func TestHAValidation(t *testing.T) {
	ep := []ShardEndpoint{{ID: 0, Network: "unix", Addr: "x"}}
	clock := func() time.Duration { return 0 }
	wm := func(int, rcr.MemWrite) (rcr.MemAck, error) { return rcr.MemAck{}, nil }
	if _, err := NewAggregator(AggregatorConfig{Shards: ep, Global: 100, Clock: clock,
		HA: &HAConfig{ID: 0, WriteMem: wm}}); err == nil {
		t.Error("replica ID 0 accepted")
	}
	if _, err := NewAggregator(AggregatorConfig{Shards: ep, Global: 100, Clock: clock,
		HA: &HAConfig{ID: 1}}); err == nil {
		t.Error("HA without WriteMem accepted")
	}
	// With HA, SetCap is not required.
	if _, err := NewAggregator(AggregatorConfig{Shards: ep, Global: 100, Clock: clock,
		HA: &HAConfig{ID: 1, WriteMem: wm}}); err != nil {
		t.Errorf("valid HA config rejected: %v", err)
	}
}

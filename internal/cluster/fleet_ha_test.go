package cluster

import (
	"context"
	"testing"
	"time"

	"repro/internal/rcr"
	"repro/internal/resilience/leak"
	"repro/internal/telemetry"
)

// TestFleetWriteMemWire drives the fenced write path end to end over a
// real shard socket: the MEM op reaches the shard's fence guard, the
// guard actuates the node's own capped daemon, a stale fence
// bounces without touching the bound, and a committed membership frame
// is stored and returned to a later probe.
func TestFleetWriteMemWire(t *testing.T) {
	leak.Check(t)
	fleet, err := NewFleet(FleetConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	mack, err := fleet.WriteMem(0, rcr.MemWrite{Write: rcr.CapWrite{
		Fence: 5, Leader: 1, Seq: 1, Lease: time.Second, HasCap: true, Cap: 140,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if ack := mack.Ack; ack.Status != rcr.CapApplied {
		t.Fatalf("ack %+v", ack)
	}
	if got := fleet.System(0).Daemon().Cap(); got != 140 {
		t.Fatalf("node controller holds %.1f W, want the fenced 140", float64(got))
	}
	// Stale fence: rejected at the guard, bound untouched.
	mack, err = fleet.WriteMem(0, rcr.MemWrite{Write: rcr.CapWrite{
		Fence: 4, Leader: 2, Seq: 1, Lease: time.Second, HasCap: true, Cap: 50,
	}})
	if err != nil {
		t.Fatal(err)
	}
	ack := mack.Ack
	if ack.Status != rcr.CapFenceRejected {
		t.Fatalf("stale fence ack %+v", ack)
	}
	if got := fleet.System(0).Daemon().Cap(); got != 140 {
		t.Fatalf("stale write moved the bound to %.1f W", float64(got))
	}
	if ack.Fence != 5 || !ack.HasApplied || ack.Applied != 140 {
		t.Fatalf("reject ack does not report the authoritative state: %+v", ack)
	}
	if _, err := fleet.WriteMem(7, rcr.MemWrite{Write: rcr.CapWrite{Fence: 1, Leader: 1, Seq: 1, Lease: time.Second}}); err == nil {
		t.Fatal("out-of-range shard accepted")
	}

	// A write carrying a frame stores it; an epoch-0 probe over the same
	// socket returns it.
	rec := MembershipRecord{Epoch: 3, Members: []MemberRecord{
		{ID: 0, Incarnation: 1, State: MemberActive, Network: "unix", Addr: "shard-0.sock"},
	}}
	frame, err := AppendMembership(nil, &rec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fleet.WriteMem(0, rcr.MemWrite{
		Write: rcr.CapWrite{Fence: 5, Leader: 1, Seq: 2, Lease: time.Second},
		Epoch: rec.Epoch, Frame: frame,
	}); err != nil {
		t.Fatal(err)
	}
	mack, err = fleet.WriteMem(0, rcr.MemWrite{Write: rcr.CapWrite{Fence: 5, Leader: 1, Seq: 3, Lease: time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	if mack.MemFence != 5 || mack.MemEpoch != rec.Epoch || string(mack.Frame) != string(frame) {
		t.Fatalf("probe returned record (fence %d, epoch %d, %d bytes), want (5, %d, the %d-byte frame)",
			mack.MemFence, mack.MemEpoch, len(mack.Frame), rec.Epoch, len(frame))
	}
}

// TestFleetCloseWithLiveSubscribers is the regression test for the
// two-phase Close: tearing the fleet down under a live aggregator used
// to interleave one shard's stack teardown with other shards' server
// drains, so delta streams died mid-exchange and the client journaled
// spurious extra sub_lost episodes. With the drain barrier, every
// stream ends cleanly at phase one: at most one outage per shard is
// journaled, Close never deadlocks, and a second Close is a no-op.
func TestFleetCloseWithLiveSubscribers(t *testing.T) {
	leak.Check(t)
	fleet, err := NewFleet(FleetConfig{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	shards := len(fleet.shards)
	closed := false
	defer func() {
		if !closed {
			fleet.Close()
		}
	}()

	t0 := time.Now()
	journal := telemetry.NewJournal(512, 1)
	agg, err := NewAggregator(AggregatorConfig{
		Shards:        fleet.Endpoints(),
		Global:        200,
		Floor:         10,
		Max:           300,
		Period:        5 * time.Millisecond,
		HealthHorizon: 300 * time.Millisecond,
		Clock:         func() time.Duration { return time.Since(t0) },
		SetCap:        fleet.SetCap,
		Telemetry:     telemetry.NewRegistry(),
		Journal:       journal,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- agg.Run(ctx) }()

	// Let every subscription establish (the streams exist even while the
	// idle shards' samplers are quiet).
	time.Sleep(100 * time.Millisecond)

	// Tear the fleet down under the live aggregator, with a watchdog on
	// the drain barrier.
	closeDone := make(chan struct{})
	go func() { fleet.Close(); close(closeDone) }()
	select {
	case <-closeDone:
		closed = true
	case <-time.After(10 * time.Second):
		t.Fatal("Fleet.Close deadlocked under live subscribers")
	}

	// Give the clients one backoff round to notice, then stop.
	time.Sleep(50 * time.Millisecond)
	cancel()
	<-done

	// One outage per shard at most: each stream ended exactly once, at
	// the phase-one drain.
	lost := 0
	for _, d := range journal.Entries() {
		if d.Kind == telemetry.KindSubLost {
			lost++
		}
	}
	if lost > shards {
		t.Errorf("%d sub_lost episodes for a %d-shard close: teardown churned the streams", lost, shards)
	}

	// Idempotent.
	fleet.Close()
}

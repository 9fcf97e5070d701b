package cluster

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/rcr"
	"repro/internal/resilience/leak"
	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/internal/workloads"
	"repro/internal/workloads/suite"
)

// TestFleetWriteMemWire drives the fenced write path end to end over a
// real shard socket: the MEM op reaches the shard's fence guard, the
// guard actuates the node's own PowerCap controller, a stale fence
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
	if got := fleet.System(0).PowerCapController().Cap(); got != 140 {
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
	if got := fleet.System(0).PowerCapController().Cap(); got != 140 {
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

// TestFleetHALeaderKillMidRepartition is the acceptance test for the HA
// control plane over real full-stack shards: two aggregator replicas
// share the fleet, the elected leader is killed while it is actively
// repartitioning a binding budget, and (a) no shard ever rises above
// its pre-kill cap until the promoted standby is in charge, (b) the
// budget is conserved at the node controllers throughout, and (c) the
// standby takes over with a higher fence and converges the fleet.
func TestFleetHALeaderKillMidRepartition(t *testing.T) {
	leak.Check(t)
	fleet, err := NewFleet(FleetConfig{Shards: 2, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	t0 := time.Now()
	const global = 120
	type replica struct {
		agg     *Aggregator
		cancel  context.CancelFunc
		done    chan error
		stopped bool
	}
	stopReplica := func(r *replica) {
		if !r.stopped {
			r.cancel()
			<-r.done
			r.stopped = true
		}
	}
	reps := make([]*replica, 2)
	journals := make([]*telemetry.Journal, 2)
	for r := range reps {
		journals[r] = telemetry.NewJournal(512, 1)
		agg, err := NewAggregator(AggregatorConfig{
			Shards:        fleet.Endpoints(),
			Global:        global,
			Floor:         10,
			Max:           300,
			Period:        20 * time.Millisecond,
			HealthHorizon: 500 * time.Millisecond,
			Clock:         func() time.Duration { return time.Since(t0) },
			Telemetry:     telemetry.NewRegistry(),
			Journal:       journals[r],
			HA: &HAConfig{
				ID: uint32(r + 1),
				// Generous against this harness's write-path tail: two
				// full-stack workloads contending with every fenced write's
				// round trip, and with the dial a leader's first write to
				// each shard pays. A lease that outruns the tail keeps the
				// pre-kill reign stable; hand-off latency is gated by the
				// soak, not here.
				LeaseTTL:   1500 * time.Millisecond,
				Grace:      400 * time.Millisecond,
				JitterSeed: uint64(77 * (r + 1)),
				WriteMem:   fleet.WriteMem,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- agg.Run(ctx) }()
		reps[r] = &replica{agg: agg, cancel: cancel, done: done}
	}
	defer func() {
		for _, r := range reps {
			stopReplica(r)
		}
	}()

	// Keep both shards hot so heartbeats move and the budget binds.
	apps := []string{"lulesh", "nqueens"}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	runErr := make([]error, len(fleet.shards))
	for i := 0; i < len(fleet.shards); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				wl, err := suite.New(apps[i])
				if err == nil {
					err = wl.Prepare(workloads.Params{
						MachineConfig: fleet.System(i).Machine().Config(),
						Scale:         0.5,
					})
				}
				if err == nil {
					_, err = fleet.System(i).RunWorkload(wl)
				}
				if err != nil {
					runErr[i] = err
					return
				}
			}
		}(i)
	}
	defer func() {
		close(stop)
		wg.Wait()
		for i, err := range runErr {
			if err != nil {
				t.Errorf("shard %d workload: %v", i, err)
			}
		}
	}()

	// Phase 1: a leader emerges and actively partitions the fleet.
	leaderIdx := -1
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		for r, rep := range reps {
			st := rep.agg.Status()
			if st.Leader && st.Healthy == 2 && st.LastChange > 0 &&
				st.Caps[0] > 0 && st.Caps[1] > 0 {
				leaderIdx = r
			}
		}
		if leaderIdx >= 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if leaderIdx < 0 {
		for r, j := range journals {
			shown := 0
			entries := j.Entries()
			for k := len(entries) - 1; k >= 0 && shown < 10; k-- {
				d := entries[k]
				switch d.Kind {
				case telemetry.KindLeaderElected, telemetry.KindLeaderDemoted,
					telemetry.KindFenceRejected, telemetry.KindCapRetry, telemetry.KindRepartition:
					t.Logf("replica %d journal: %v %s %s", r+1, d.T, d.Kind, d.Detail)
					shown++
				}
			}
		}
		t.Fatalf("no replica ever led and repartitioned: %+v / %+v",
			reps[0].agg.Status(), reps[1].agg.Status())
	}
	standby := reps[1-leaderIdx]

	// Phase 2: kill the leader mid-flight, then freeze the pre-kill
	// state (sampling before the stop would race its final writes).
	stopReplica(reps[leaderIdx])
	killedStatus := reps[leaderIdx].agg.Status()
	preKill := make([]units.Watts, len(fleet.shards))
	for i := range preKill {
		preKill[i] = fleet.System(i).PowerCapController().Cap()
	}

	// Phase 3: monitor the node controllers through the hand-off. Until
	// the standby is promoted nobody may raise any shard's bound, and
	// the budget holds at the actuators the whole way.
	var promoted bool
	deadline = time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		caps := make([]units.Watts, len(fleet.shards))
		sum := units.Watts(0)
		for i := 0; i < len(fleet.shards); i++ {
			caps[i] = fleet.System(i).PowerCapController().Cap()
			sum += caps[i]
		}
		if float64(sum) > global+sumEps {
			t.Fatalf("node controllers hold Σ %.3f W > %d W during hand-off", float64(sum), global)
		}
		// The per-shard no-rise check is only decisive while the standby
		// is verifiably not yet in charge: reading its status *after* the
		// samples rules out a promotion racing the read.
		st := standby.agg.Status()
		if !promoted && !st.Leader {
			for i := range caps {
				if caps[i] > preKill[i] {
					t.Fatalf("shard %d rose to %.1f W above its pre-kill %.1f W with no leader in charge",
						i, float64(caps[i]), float64(preKill[i]))
				}
			}
		}
		if st.Leader {
			promoted = true
			if st.Healthy == 2 && st.LastChange > 0 {
				break // promoted and driving: hand-off complete
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !promoted {
		t.Fatalf("standby never promoted: %+v", standby.agg.Status())
	}
	final := standby.agg.Status()
	if final.Fence <= killedStatus.Fence {
		t.Errorf("promoted fence %d not above the killed leader's %d", final.Fence, killedStatus.Fence)
	}
	if final.Elections == 0 {
		t.Error("promotion without an election on the record")
	}
	if float64(final.CapsSum) > global+sumEps {
		t.Errorf("Σcaps %.3f exceeds the %d W budget after hand-off", float64(final.CapsSum), global)
	}
	// The standby's assignment really landed in the node controllers.
	stopReplica(standby)
	settled := standby.agg.Status()
	for i := 0; i < len(fleet.shards); i++ {
		if got := fleet.System(i).PowerCapController().Cap(); got != settled.Caps[i] {
			t.Errorf("shard %d controller holds %.1f W, promoted leader applied %.1f W",
				i, float64(got), float64(settled.Caps[i]))
		}
	}
	t.Logf("hand-off: killed replica %d (fence %d) → replica %d (fence %d), caps %.1f/%.1f of %d W",
		leaderIdx+1, killedStatus.Fence, 2-leaderIdx, settled.Fence,
		float64(settled.Caps[0]), float64(settled.Caps[1]), global)
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

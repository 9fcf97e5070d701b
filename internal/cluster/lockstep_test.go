package cluster

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/qthreads"
	"repro/internal/rcr"
	"repro/internal/resilience/leak"
	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/internal/workloads"
)

// testJob is a synthetic workload: every worker computes for d of
// virtual time (streaming instead when memBound), and Validate — which
// the node's goroutine calls between jobs, with its clock held — can be
// made to block on gate or to fail.
type testJob struct {
	d        time.Duration
	memBound bool
	gate     chan struct{}
	fail     error
}

func (j *testJob) Name() string                   { return "test-job" }
func (j *testJob) Prepare(workloads.Params) error { return nil }
func (j *testJob) Validate() error {
	if j.gate != nil {
		<-j.gate
	}
	return j.fail
}

func (j *testJob) Root() qthreads.Task {
	return func(tc *qthreads.TC) {
		cfg := tc.Machine().Config()
		n := tc.Runtime().Workers()
		tc.ParallelFor(n, 1, func(tc *qthreads.TC, _, _ int) {
			if j.memBound {
				tc.Stream(j.d.Seconds() * float64(cfg.Mem.BandwidthPerSocket) * float64(cfg.Sockets) / float64(n))
			} else {
				tc.Compute(j.d.Seconds() * float64(cfg.BaseFreq))
			}
		})
	}
}

func jobs(lists ...[]workloads.Workload) [][]workloads.Workload { return lists }
func list(js ...*testJob) []workloads.Workload {
	out := make([]workloads.Workload, len(js))
	for i, j := range js {
		out[i] = j
	}
	return out
}

const testPeriod = 50 * time.Millisecond

func newTestLockstep(t *testing.T, cfg FleetConfig, budget units.Watts) *LockstepFleet {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	f, err := NewLockstepFleet(cfg, testPeriod, budget)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

func heartbeat(t *testing.T, f *LockstepFleet, i int) float64 {
	t.Helper()
	m, ok := f.System(i).Blackboard().System(rcr.MeterHeartbeat)
	if !ok {
		t.Fatalf("node %d has no heartbeat", i)
	}
	return m.Value
}

// TestLockstepBoundariesAndIdling: after every Step every node's clock
// reads exactly k × period; a node whose list is done keeps sampling and
// heartbeating — and burning idle energy — while its job accounting
// stands still; Done turns true at the first boundary at or after the
// last completion.
func TestLockstepBoundariesAndIdling(t *testing.T) {
	leak.Check(t)
	f := newTestLockstep(t, FleetConfig{Shards: 2}, 400)
	short, long := &testJob{d: 70 * time.Millisecond}, &testJob{d: 330 * time.Millisecond}
	if err := f.Start(jobs(list(short), list(long, short))); err != nil {
		t.Fatal(err)
	}
	if err := f.Start(jobs(nil, nil)); err == nil {
		t.Error("second Start accepted")
	}
	var idleJoules units.Joules
	var idleBusy time.Duration
	var idleBeat float64
	var idleEnergy units.Joules
	for k := 1; !f.Done(); k++ {
		if k > 40 {
			t.Fatal("fleet never finished")
		}
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
		if want := time.Duration(k) * testPeriod; f.Now() != want {
			t.Fatalf("after %d steps the fleet clock reads %v, want %v", k, f.Now(), want)
		}
		for i := 0; i < len(f.nodes); i++ {
			if now := f.System(i).Machine().Now(); now != f.Now() {
				t.Fatalf("step %d: node %d parked at %v, want exactly %v", k, i, now, f.Now())
			}
		}
		joules, busy := f.Usage(0)
		switch {
		case k == 1:
			if busy != 0 {
				t.Errorf("node 0 reports %v busy at 50 ms, before its 70 ms job can have ended", busy)
			}
		case k == 2:
			if busy < short.d || busy > short.d+5*time.Millisecond || joules <= 0 {
				t.Errorf("node 0's job cost %v / %.2f J, want ≈ %v and real energy", busy, float64(joules), short.d)
			}
			idleJoules, idleBusy = joules, busy
		default:
			if joules != idleJoules || busy != idleBusy {
				t.Errorf("step %d: idle node 0's job accounting moved: %v / %.3f J", k, busy, float64(joules))
			}
			if beat := heartbeat(t, f, 0); beat <= idleBeat {
				t.Errorf("step %d: idle node 0's heartbeat stuck at %.0f", k, beat)
			}
			if e := f.System(0).Machine().TotalEnergy(); e <= idleEnergy {
				t.Errorf("step %d: idle node 0 stopped drawing power", k)
			}
		}
		idleBeat, idleEnergy = heartbeat(t, f, 0), f.System(0).Machine().TotalEnergy()
	}
	// 330 + 70 ms of work end a little after 400 ms (scheduling costs):
	// the fleet is done at the 450 ms boundary.
	if f.Now() != 9*testPeriod {
		t.Errorf("fleet done at %v, want the boundary after node 1's 400 ms of work", f.Now())
	}
	if _, busy := f.Usage(1); busy < 400*time.Millisecond || busy > 410*time.Millisecond {
		t.Errorf("node 1 was busy %v over two jobs, want ≈ 400 ms", busy)
	}
}

// TestLockstepHeldNodeStallsFleet: while a node's goroutine holds its
// clock between two jobs, Step does not return, the fleet clock does not
// move and no other node gets past the next boundary.
func TestLockstepHeldNodeStallsFleet(t *testing.T) {
	leak.Check(t)
	f := newTestLockstep(t, FleetConfig{Shards: 2}, 400)
	gated := &testJob{d: 70 * time.Millisecond, gate: make(chan struct{})}
	if err := f.Start(jobs(list(gated, &testJob{d: 70 * time.Millisecond}), list(&testJob{d: time.Second}))); err != nil {
		t.Fatal(err)
	}
	if err := f.Step(); err != nil { // → 50 ms
		t.Fatal(err)
	}
	stepped := make(chan error, 1)
	go func() { stepped <- f.Step() }() // → 100 ms, but node 0 stops at ≈ 70 ms
	select {
	case err := <-stepped:
		t.Fatalf("Step returned (%v) while node 0 held its clock", err)
	case <-time.After(100 * time.Millisecond):
	}
	held := f.System(0).Machine().Now()
	if held <= testPeriod || held >= 2*testPeriod {
		t.Errorf("node 0 holds its clock at %v, want its job's end between the boundaries", held)
	}
	if now := f.System(1).Machine().Now(); now != 2*testPeriod {
		t.Errorf("node 1 reads %v while the fleet is stalled, want parked on the next boundary", now)
	}
	close(gated.gate)
	if err := <-stepped; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(f.nodes); i++ {
		if now := f.System(i).Machine().Now(); now != 2*testPeriod || f.Now() != now {
			t.Errorf("after the stall node %d reads %v, fleet %v, want %v", i, now, f.Now(), 2*testPeriod)
		}
	}
}

// TestLockstepNodeFailureSurfaces: a node that will never reach its next
// barrier — its machine hit the watchdog limit mid-job (beside a node
// that was idling when it did), was stopped from outside, or its workload
// produced a wrong answer —
// fails Step instead of hanging it, and the fleet still closes cleanly.
func TestLockstepNodeFailureSurfaces(t *testing.T) {
	limited := machine.M620()
	limited.VirtualTimeLimit = 120 * time.Millisecond
	wrong := errors.New("wrong answer")
	for _, tc := range []struct {
		name    string
		machine machine.Config
		jobs    [][]workloads.Workload
		stop    bool // stop node 1's machine from outside after the first step
		want    string
	}{
		{"watchdog mid-job", limited, jobs(nil, list(&testJob{d: time.Second})), false, "node 1"},
		{"stopped from outside", machine.Config{}, jobs(list(&testJob{d: time.Second}), list(&testJob{d: time.Second})), true, "node 1"},
		{"wrong answer", machine.Config{}, jobs(list(&testJob{d: time.Second}), list(&testJob{d: 70 * time.Millisecond, fail: wrong})), false, "wrong answer"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			leak.Check(t)
			f := newTestLockstep(t, FleetConfig{Shards: 2, Machine: tc.machine}, 400)
			if err := f.Start(tc.jobs); err != nil {
				t.Fatal(err)
			}
			var err error
			for k := 0; k < 5 && err == nil; k++ {
				if err = f.Step(); tc.stop && k == 0 && err == nil {
					// Stop waits for the engine, which is parked on the barrier
					// until the next Step resumes it.
					go f.System(1).Machine().Stop()
				}
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Step error = %v, want one naming %q", err, tc.want)
			}
			if again := f.Step(); again != err {
				t.Errorf("a failed fleet stepped again: %v", again)
			}
		})
	}
}

// TestLockstepCloseParked: Close returns with nodes parked on the barrier
// mid-job, and before Start, leaving no goroutine behind.
func TestLockstepCloseParked(t *testing.T) {
	leak.Check(t)
	f := newTestLockstep(t, FleetConfig{Shards: 2}, 400)
	if err := f.Start(jobs(list(&testJob{d: time.Second}), list(&testJob{d: time.Second}))); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	f.Close() // idempotent
	f = newTestLockstep(t, FleetConfig{Shards: 1}, 100)
	if err := f.Step(); err == nil {
		t.Error("Step before Start succeeded")
	}
	f.Close()
}

// TestLockstepNodeJournalsFenceRejection: a fleet node's guard writes a
// fence_rejected record into the node's own journal when it refuses a
// write, so the refusal is visible where the node's decisions are.
func TestLockstepNodeJournalsFenceRejection(t *testing.T) {
	f := newTestLockstep(t, FleetConfig{Shards: 1}, 100)
	for _, fence := range []uint64{2, 1} {
		if _, err := f.WriteMem(0, rcr.MemWrite{Write: rcr.CapWrite{
			Fence: fence, Leader: 1, Seq: 1, Lease: time.Second}}); err != nil {
			t.Fatal(err)
		}
	}
	rejected := 0
	for _, d := range f.System(0).Journal().Entries() {
		if d.Kind == telemetry.KindFenceRejected {
			rejected++
		}
	}
	if rejected != 1 {
		t.Errorf("node journal holds %d fence_rejected records, want 1", rejected)
	}
}

// lockstepRun is one closed-loop run: a memory-bound and a compute-bound
// node under a stepped aggregator (fenced through the guards when ha),
// polled at every boundary.
type lockstepRun struct {
	Caps    []units.Watts
	Usage   []units.Joules
	Status  AggregatorStatus
	Applies uint64
	Handoff []time.Duration
	Healthy int
}

func runLockstepLoop(t *testing.T, ha bool) lockstepRun {
	t.Helper()
	const budget = 160
	f := newTestLockstep(t, FleetConfig{Shards: 2, Workers: 8}, budget)
	defer f.Close()
	acfg := AggregatorConfig{
		Shards: f.Endpoints(), Global: budget, Floor: 10, Max: 300,
		Period: testPeriod, Clock: f.Now, SetCap: f.SetCap, Telemetry: telemetry.NewRegistry(),
	}
	if ha {
		acfg.SetCap = nil
		acfg.HA = &HAConfig{ID: 1, LeaseTTL: 8 * testPeriod, WriteMem: f.WriteMem}
	}
	agg, err := NewSteppedAggregator(acfg, f.Source)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(jobs(list(&testJob{d: 2 * time.Second, memBound: true}), list(&testJob{d: 2 * time.Second}))); err != nil {
		t.Fatal(err)
	}
	out := lockstepRun{}
	for !f.Done() {
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
		agg.Poll()
		if st := agg.Status(); st.Healthy > out.Healthy {
			out.Healthy = st.Healthy
		}
		if f.Now() == time.Second {
			out.Status = agg.Status()
		}
	}
	for i := 0; i < len(f.nodes); i++ {
		out.Caps = append(out.Caps, f.System(i).PowerCapController().Cap())
		j, _ := f.Usage(i)
		out.Usage = append(out.Usage, j)
		if got, want := out.Caps[i], agg.Status().Caps[i]; got != want {
			t.Errorf("node %d PowerCap holds %.1f W, aggregator applied %.1f W", i, float64(got), float64(want))
		}
	}
	if ha {
		// The leader replicated its membership record to every guard.
		want := agg.core.members.Record().Members
		for i, n := range f.nodes {
			_, epoch, frame := n.fence.Membership()
			var rec MembershipRecord
			if err := DecodeMembership(frame, &rec); epoch < 1 || err != nil {
				t.Fatalf("node %d guard holds membership epoch %d (%v)", i, epoch, err)
			}
			if !reflect.DeepEqual(rec.Members, want) {
				t.Errorf("node %d guard holds members %+v, want the aggregator's %+v", i, rec.Members, want)
			}
		}
	}
	var violations uint64
	if violations, out.Handoff = f.Audit(); violations != 0 || f.auditor.applies == 0 {
		t.Errorf("ha=%v: %d applies broke an invariant, of %d", ha, violations, f.auditor.applies)
	}
	out.Applies = f.auditor.applies
	return out
}

// TestLockstepClosedLoop closes the loop on one clock, unfenced and
// fenced: blackboards reach the aggregator through Source, both nodes
// are healthy from the first poll, mid-run the partition favours the
// compute-bound node's headroom, every apply conserves the budget, the
// caps land in the nodes' own controllers — and a second run reproduces
// the first to the bit.
func TestLockstepClosedLoop(t *testing.T) {
	leak.Check(t)
	for _, ha := range []bool{false, true} {
		run := runLockstepLoop(t, ha)
		if run.Healthy != 2 {
			t.Errorf("ha=%v: %d nodes ever healthy, want 2", ha, run.Healthy)
		}
		if st := run.Status; len(st.Caps) != 2 || st.Caps[1] <= st.Caps[0] || st.Caps[0] <= 0 {
			t.Errorf("ha=%v: caps at 1 s %v: partition ignored the compute-bound node's headroom", ha, st.Caps)
		}
		if again := runLockstepLoop(t, ha); !reflect.DeepEqual(run, again) {
			t.Errorf("ha=%v: two runs differ:\n%+v\n%+v", ha, run, again)
		}
	}
}

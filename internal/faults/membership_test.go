package faults

import (
	"testing"
	"time"
)

// TestGenerateMembershipScheduleEnvelope checks the churn schedule
// invariants over a corpus of seeds: deterministic, ops resolved inside
// the envelope, growth reaching the peak, targets always valid when
// their op fires, and the fleet never replaying below the quorum floor.
func TestGenerateMembershipScheduleEnvelope(t *testing.T) {
	horizon := 2 * time.Second
	for seed := uint64(0); seed < 200; seed++ {
		a := GenerateMembershipSchedule(seed, 4, 16, horizon)
		b := GenerateMembershipSchedule(seed, 4, 16, horizon)
		if len(a.Events) != len(b.Events) {
			t.Fatalf("seed %d: nondeterministic event count", seed)
		}
		for i := range a.Events {
			if a.Events[i] != b.Events[i] {
				t.Fatalf("seed %d: nondeterministic event %d: %+v vs %+v", seed, i, a.Events[i], b.Events[i])
			}
		}
		if len(a.Events) == 0 {
			t.Fatalf("seed %d: empty schedule", seed)
		}
		checkEnvelope(t, horizon, a.Events)
		joins := 0
		for _, ev := range a.Events {
			if ev.Op == OpJoin {
				joins++
			}
		}
		if joins < a.Peak-a.Base {
			t.Fatalf("seed %d: %d joins cannot reach peak %d from base %d", seed, joins, a.Peak, a.Base)
		}
		// Replay: every op must target a member that exists at its firing
		// time, and the fleet must never shrink below the quorum floor.
		in := make(map[int]bool, a.Base)
		for id := 0; id < a.Base; id++ {
			in[id] = true
		}
		size := a.Base
		for _, ev := range a.Events {
			switch ev.Op {
			case OpJoin:
				if in[ev.Shard] {
					t.Fatalf("seed %d: join of already-present member %d", seed, ev.Shard)
				}
				in[ev.Shard] = true
				size++
			case OpJoinCrash:
				if in[ev.Shard] {
					t.Fatalf("seed %d: join-crash reuses present member %d", seed, ev.Shard)
				}
			case OpDrain, OpDecommission:
				if !in[ev.Shard] {
					t.Fatalf("seed %d: %s of absent member %d", seed, ev.Op, ev.Shard)
				}
				delete(in, ev.Shard)
				size--
			case OpRejoin:
				if !in[ev.Shard] {
					t.Fatalf("seed %d: rejoin of absent member %d", seed, ev.Shard)
				}
				// Leaves then returns; net fleet size unchanged once the
				// re-join resolves.
			}
			if size < minChurnFleet {
				t.Fatalf("seed %d: fleet shrank to %d below the quorum floor", seed, size)
			}
		}
		final := a.FinalFleet()
		if len(final) < a.Base {
			t.Fatalf("seed %d: final fleet %d below base %d", seed, len(final), a.Base)
		}
		for i := 1; i < len(final); i++ {
			if final[i] <= final[i-1] {
				t.Fatalf("seed %d: final fleet not sorted unique: %v", seed, final)
			}
		}
	}
}

// TestMembershipScheduleShape pins the N=4 → 16 → 4 shape: the replayed
// high-water mark reaches the peak and the run ends back at (or near)
// the base.
func TestMembershipScheduleShape(t *testing.T) {
	s := GenerateMembershipSchedule(11, 4, 16, 2*time.Second)
	size, high := s.Base, s.Base
	for _, ev := range s.Events {
		switch ev.Op {
		case OpJoin:
			size++
		case OpDrain, OpDecommission:
			size--
		}
		if size > high {
			high = size
		}
	}
	if high < s.Peak {
		t.Fatalf("high-water %d never reached peak %d", high, s.Peak)
	}
	if final := s.FinalFleet(); len(final) > s.Base+4 {
		t.Fatalf("final fleet %d did not drain back toward base %d", len(final), s.Base)
	}
}

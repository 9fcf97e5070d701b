package faults

import (
	"reflect"
	"testing"
	"time"
)

func TestGenerateServiceScheduleShape(t *testing.T) {
	horizon := 2 * time.Second
	for seed := uint64(0); seed < 200; seed++ {
		s := GenerateServiceSchedule(seed, horizon)
		if len(s.Events) < 2 || len(s.Events) > 5 {
			t.Fatalf("seed %d: %d events outside [2,5]", seed, len(s.Events))
		}
		for i, ev := range s.Events {
			if ev.Kind < 0 || ev.Kind >= NumServiceKinds {
				t.Fatalf("seed %d event %d: bad kind %d", seed, i, ev.Kind)
			}
			if ev.Start < 0 || ev.End <= ev.Start {
				t.Fatalf("seed %d event %d: bad window [%v, %v)", seed, i, ev.Start, ev.End)
			}
			if ev.End > horizon*4/5 {
				t.Fatalf("seed %d event %d: closes at %v, past the convergence cutoff", seed, i, ev.End)
			}
		}
		if s.ClearTime() > horizon*4/5 {
			t.Fatalf("seed %d: clear time %v leaves no convergence window", seed, s.ClearTime())
		}
	}
	// Same seed, same schedule: what makes a failing corpus seed replayable.
	if !reflect.DeepEqual(GenerateServiceSchedule(42, horizon), GenerateServiceSchedule(42, horizon)) {
		t.Fatal("same seed produced different service schedules")
	}
}

func TestGenerateFleetScheduleShape(t *testing.T) {
	horizon := 2 * time.Second
	for _, shards := range []int{1, 8, 64} {
		for seed := uint64(0); seed < 200; seed++ {
			s := GenerateFleetSchedule(seed, shards, horizon)
			if s.Shards != shards {
				t.Fatalf("shards %d seed %d: schedule reports %d shards", shards, seed, s.Shards)
			}
			if len(s.Events) < 3 {
				t.Fatalf("shards %d seed %d: only %d events", shards, seed, len(s.Events))
			}
			for i, ev := range s.Events {
				if ev.Shard < 0 || ev.Shard >= shards {
					t.Fatalf("shards %d seed %d event %d: shard %d out of range", shards, seed, i, ev.Shard)
				}
				if ev.Kind < 0 || ev.Kind >= NumServiceKinds {
					t.Fatalf("shards %d seed %d event %d: bad kind %d", shards, seed, i, ev.Kind)
				}
				if ev.Start < 0 || ev.End <= ev.Start || ev.End > horizon*4/5 {
					t.Fatalf("shards %d seed %d event %d: bad window [%v, %v)", shards, seed, i, ev.Start, ev.End)
				}
			}
		}
	}
	// The event count must scale with the fleet: a 64-shard schedule
	// space reaches well past the 8-shard maximum.
	max8, max64 := 0, 0
	for seed := uint64(0); seed < 500; seed++ {
		if n := len(GenerateFleetSchedule(seed, 8, horizon).Events); n > max8 {
			max8 = n
		}
		if n := len(GenerateFleetSchedule(seed, 64, horizon).Events); n > max64 {
			max64 = n
		}
	}
	if max64 <= max8 {
		t.Errorf("fleet scaling missing: max events 8-shard %d vs 64-shard %d", max8, max64)
	}
}

func TestFleetScheduleDeterministicAndScoped(t *testing.T) {
	a := GenerateFleetSchedule(42, 16, time.Second)
	b := GenerateFleetSchedule(42, 16, time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different fleet schedules")
	}
	s := FleetSchedule{Shards: 2, Events: []FleetEvent{
		{Shard: 0, ServiceEvent: ServiceEvent{Kind: ConnReset, Start: 0, End: 100 * time.Millisecond}},
		{Shard: 1, ServiceEvent: ServiceEvent{Kind: SlowLoris, Start: 50 * time.Millisecond, End: 200 * time.Millisecond}},
	}}
	if got := s.ActiveOn(0, 10*time.Millisecond); len(got) != 1 || got[0] != ConnReset {
		t.Errorf("shard 0 active = %v", got)
	}
	if got := s.ActiveOn(1, 10*time.Millisecond); len(got) != 0 {
		t.Errorf("shard 1 should be quiet at 10ms, got %v", got)
	}
	if got := s.ActiveOn(1, 150*time.Millisecond); len(got) != 1 || got[0] != SlowLoris {
		t.Errorf("shard 1 active = %v", got)
	}
	if s.ClearTime() != 200*time.Millisecond {
		t.Errorf("clear time %v", s.ClearTime())
	}
}

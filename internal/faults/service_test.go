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
		if s.Shards != 1 {
			t.Fatalf("seed %d: a service schedule over %d shards", seed, s.Shards)
		}
		checkEnvelope(t, horizon, s.Events)
		for i, ev := range s.Events {
			if ev.Shard != 0 || ev.Kind < 0 || ev.Kind >= NumServiceKinds {
				t.Fatalf("seed %d event %d: bad shard %d or kind %d", seed, i, ev.Shard, ev.Kind)
			}
			checkRestart(t, horizon, ev)
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
			checkEnvelope(t, horizon, s.Events)
			for i, ev := range s.Events {
				if ev.Shard < 0 || ev.Shard >= shards {
					t.Fatalf("shards %d seed %d event %d: shard %d out of range", shards, seed, i, ev.Shard)
				}
				if ev.Kind < 0 || ev.Kind >= NumServiceKinds {
					t.Fatalf("shards %d seed %d event %d: bad kind %d", shards, seed, i, ev.Kind)
				}
				checkRestart(t, horizon, ev)
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
	s := FleetSchedule{Shards: 2, Events: []ServiceEvent{
		{Shard: 0, Kind: ConnReset, Window: Window{0, 100 * time.Millisecond}},
		{Shard: 1, Kind: SlowLoris, Window: Window{50 * time.Millisecond, 200 * time.Millisecond}},
	}}
	if !s.ActiveOn(0, ConnReset, 10*time.Millisecond) || s.ActiveOn(0, SlowLoris, 10*time.Millisecond) {
		t.Error("shard 0 at 10ms: want ConnReset alone")
	}
	if s.ActiveOn(1, SlowLoris, 10*time.Millisecond) || s.ActiveOn(1, ConnReset, 10*time.Millisecond) {
		t.Error("shard 1 should be quiet at 10ms")
	}
	if !s.ActiveOn(1, SlowLoris, 150*time.Millisecond) || s.ActiveOn(0, ConnReset, 150*time.Millisecond) {
		t.Error("at 150ms: want SlowLoris on shard 1 alone")
	}
	if ClearTime(s.Events) != 200*time.Millisecond {
		t.Errorf("clear time %v", ClearTime(s.Events))
	}
}

// checkRestart checks that a ServerRestart window is short enough for the
// restarted daemon to come back: under horizon/50 + horizon/5.
func checkRestart(t *testing.T, horizon time.Duration, ev ServiceEvent) {
	t.Helper()
	if ev.Kind == ServerRestart && ev.End-ev.Start >= horizon/50+horizon/5 {
		t.Fatalf("restart window [%v, %v) on shard %d longer than %v", ev.Start, ev.End, ev.Shard, horizon/50+horizon/5)
	}
}

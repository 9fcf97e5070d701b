package faults

import (
	"errors"
	"testing"
	"time"
)

// TestGenerateWANScheduleEnvelope checks the WAN schedule invariants
// over a corpus of seeds: deterministic, windows inside the envelope,
// at least one LeaderKill, kills never overlapping, fields scoped to
// their kinds.
func TestGenerateWANScheduleEnvelope(t *testing.T) {
	horizon := 2 * time.Second
	for seed := uint64(0); seed < 200; seed++ {
		a := GenerateWANSchedule(seed, 3, 16, horizon)
		b := GenerateWANSchedule(seed, 3, 16, horizon)
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
		kills := a.Kills()
		if len(kills) == 0 {
			t.Fatalf("seed %d: no LeaderKill window", seed)
		}
		for i := 1; i < len(kills); i++ {
			if kills[i].Start < kills[i-1].End {
				t.Fatalf("seed %d: overlapping kills %+v / %+v", seed, kills[i-1], kills[i])
			}
		}
		checkEnvelope(t, horizon, a.Events)
		for i, ev := range a.Events {
			if ev.Agg < 0 || ev.Agg >= a.Replicas {
				t.Fatalf("seed %d event %d: replica %d out of range", seed, i, ev.Agg)
			}
			if ev.Shard < -1 || ev.Shard >= a.Shards {
				t.Fatalf("seed %d event %d: shard %d out of range", seed, i, ev.Shard)
			}
			switch ev.Kind {
			case LeaderKill:
				if ev.Shard != -1 {
					t.Fatalf("seed %d event %d: shard-scoped LeaderKill", seed, i)
				}
			case NetLatency:
				if ev.Delay <= 0 {
					t.Fatalf("seed %d event %d: NetLatency without delay", seed, i)
				}
			}
		}
	}
}

// TestWANScheduleDistinctStreams: the WAN tier must not mirror the
// fleet tier's draws for the same seed — they layer in one soak.
func TestWANScheduleDistinctStreams(t *testing.T) {
	same := 0
	for seed := uint64(1); seed <= 20; seed++ {
		w := GenerateWANSchedule(seed, 2, 16, 2*time.Second)
		f := GenerateFleetSchedule(seed, 16, 2*time.Second)
		if len(w.Events) > 0 && len(f.Events) > 0 &&
			w.Events[0].Start == f.Events[0].Start {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("WAN and fleet schedules correlated on %d/20 seeds", same)
	}
}

// TestWANInjectorGateWrite exercises each gate behaviour directly.
func TestWANInjectorGateWrite(t *testing.T) {
	sched := WANSchedule{
		Replicas: 2, Shards: 4,
		Events: []WANEvent{
			{Agg: 0, Shard: 1, Kind: NetPartition, Dir: DirWrite, Window: Window{0, 100 * time.Millisecond}},
			{Agg: 0, Shard: 2, Kind: NetPartition, Dir: DirSub, Window: Window{0, 100 * time.Millisecond}},
			{Agg: 1, Shard: -1, Kind: SplitBrain, Window: Window{0, 200 * time.Millisecond}},
			{Agg: 0, Shard: 3, Kind: NetLatency, Delay: 5 * time.Millisecond, Window: Window{0, 100 * time.Millisecond}},
		},
	}
	var slept time.Duration
	inj := NewWANInjector(sched, func(d time.Duration) { slept += d })

	ran := 0
	do := func() error { ran++; return nil }

	// Write-direction partition drops agg 0 → shard 1.
	if err := inj.GateWrite(0, 1, 10*time.Millisecond, do); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("partitioned write: %v", err)
	}
	// Sub-direction partition does NOT touch the write path.
	if err := inj.GateWrite(0, 2, 10*time.Millisecond, do); err != nil {
		t.Fatalf("DirSub blocked a write: %v", err)
	}
	// ...but it does block the subscription.
	if !inj.SubBlocked(0, 2, 10*time.Millisecond) {
		t.Fatal("DirSub did not block the subscription")
	}
	if inj.SubBlocked(0, 1, 10*time.Millisecond) {
		t.Fatal("DirWrite blocked the subscription")
	}
	// Fleet-wide split-brain captures agg 1's writes to every shard.
	for shard := 0; shard < 4; shard++ {
		if err := inj.GateWrite(1, shard, 10*time.Millisecond, do); !errors.Is(err, ErrHeld) {
			t.Fatalf("split-brain shard %d: %v", shard, err)
		}
	}
	// Latency delays but delivers.
	if err := inj.GateWrite(0, 3, 10*time.Millisecond, do); err != nil {
		t.Fatalf("latency write: %v", err)
	}
	if slept != 5*time.Millisecond {
		t.Fatalf("slept %v, want 5ms", slept)
	}
	// Outside every window the gate is transparent.
	if err := inj.GateWrite(0, 1, 500*time.Millisecond, do); err != nil {
		t.Fatalf("clear write: %v", err)
	}
	if ran != 3 {
		t.Fatalf("%d writes ran inline, want 3", ran)
	}

	// Held writes stay held until the window closes...
	if n := inj.Flush(150 * time.Millisecond); n != 0 {
		t.Fatalf("flushed %d writes before the window closed", n)
	}
	// ...then all land at once.
	if n := inj.Flush(250 * time.Millisecond); n != 4 {
		t.Fatalf("flushed %d writes, want 4", n)
	}
	if ran != 7 {
		t.Fatalf("%d total writes ran, want 7 (3 inline + 4 flushed)", ran)
	}
	st := inj.Stats()
	if st.Dropped != 1 || st.Captured != 4 || st.Flushed != 4 || st.Delayed != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestWANInjectorPrecedence: GateWrite applies partition, then
// split-brain hold, then latency. A write both partitioned and inside a
// split-brain window is dropped, not held; a write inside both a latency
// and a split-brain window is held, not delayed.
func TestWANInjectorPrecedence(t *testing.T) {
	window := Window{0, time.Second}
	for _, tc := range []struct {
		name    string
		kind    WANKind // the event beside the split-brain window
		want    error
		flushed int
	}{
		{"partition over hold", NetPartition, ErrPartitioned, 0},
		{"hold over latency", NetLatency, ErrHeld, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			slept := false
			inj := NewWANInjector(WANSchedule{
				Replicas: 2, Shards: 1,
				Events: []WANEvent{
					{Agg: 0, Shard: 0, Kind: tc.kind, Dir: DirBoth, Delay: time.Millisecond, Window: window},
					{Agg: 0, Shard: 0, Kind: SplitBrain, Window: window},
				},
			}, func(time.Duration) { slept = true })
			err := inj.GateWrite(0, 0, time.Millisecond, func() error { return nil })
			if !errors.Is(err, tc.want) {
				t.Fatalf("err %v, want %v", err, tc.want)
			}
			if st := inj.Stats(); st.Delayed != 0 || slept {
				t.Fatalf("write delayed (Delayed %d, slept %v)", st.Delayed, slept)
			}
			if n := inj.Flush(2 * time.Second); n != tc.flushed {
				t.Fatalf("%d writes flushed, want %d", n, tc.flushed)
			}
		})
	}
}

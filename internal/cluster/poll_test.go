package cluster

import (
	"testing"
	"time"

	"repro/internal/rcr"
)

// BenchmarkPoll measures one control-plane poll over 16 in-memory shards
// whose heartbeats advance every poll: plain-16 is the core actuating
// through SetCap (aggHarness), ha-16 one elected leader renewing its
// lease on every shard through WriteMem into in-process fence guards
// (haHarness).
func BenchmarkPoll(b *testing.B) {
	const shards, global = 16, 960
	for _, ha := range []bool{false, true} {
		name := "plain-16"
		if ha {
			name = "ha-16"
		}
		b.Run(name, func(b *testing.B) {
			var core *controlCore
			var clock *fakeClock
			var snaps []*rcr.Snapshot
			if ha {
				h := newHAHarness(b, 1, shards, global)
				h.electFirst(b)
				core, clock, snaps = h.reps[0].agg, h.clock, h.reps[0].snaps
			} else {
				h := newAggHarness(b, shards, global)
				for i := 0; i < shards; i++ {
					h.push(i, shardSnap(1, 80, float64(4+22*(i%2)), 0))
				}
				core, clock, snaps = h.agg, h.clock, h.snaps
			}
			b.ReportAllocs()
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				clock.advance(50 * time.Millisecond)
				for _, s := range snaps {
					s.System[0].Value++
				}
				core.Poll()
			}
		})
	}
}

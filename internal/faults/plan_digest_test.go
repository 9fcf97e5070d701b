package faults

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"testing"
	"time"
)

// planDigest pins every plan the generators draw. The node chaos corpus,
// the client corpus, the plain/HA/churn cluster corpora and the nine
// pinned cluster findings all replay these plans, so a change to how a
// generator draws moves every report at once; this test names it first.
// It hashes the plans field by field, never through a formatted struct,
// so a change of event shape that keeps every drawn value passes.
const planDigest = "a084af6006c28258"

type digest struct {
	h   hash.Hash64
	buf [8]byte
}

func (d *digest) add(vs ...int64) {
	for _, v := range vs {
		binary.LittleEndian.PutUint64(d.buf[:], uint64(v))
		d.h.Write(d.buf[:])
	}
}

func TestGeneratorPlansDigest(t *testing.T) {
	d := digest{h: fnv.New64a()}
	for seed := uint64(0); seed < 1000; seed++ {
		// The node chaos corpus (1–2 sockets) and its default horizon.
		for _, c := range []struct {
			horizon time.Duration
			domains int
		}{{400 * time.Millisecond, 1}, {400 * time.Millisecond, 2}, {0, 3}} {
			s := GenerateSchedule(seed, c.horizon, c.domains)
			d.add(int64(s.Seed), int64(len(s.Events)))
			for _, ev := range s.Events {
				d.add(int64(ev.Kind), int64(ev.Domain), int64(ev.Start), int64(ev.End), int64(ev.Delay))
			}
		}
		// The client corpus's two replicas, the shape tests' horizon and
		// the default.
		for _, c := range []struct {
			seed    uint64
			horizon time.Duration
		}{{seed, 240 * time.Millisecond}, {^seed, 240 * time.Millisecond}, {seed, 2 * time.Second}, {seed, 0}} {
			s := GenerateServiceSchedule(c.seed, c.horizon)
			d.add(int64(s.Seed), int64(len(s.Events)))
			for _, ev := range s.Events {
				d.add(int64(ev.Kind), int64(ev.Start), int64(ev.End))
			}
		}
		// The plain and HA corpora (8 shards, 400 ms budget → 320 ms
		// horizon) and the shape tests' fleets.
		for _, c := range []struct {
			shards  int
			horizon time.Duration
		}{{8, 320 * time.Millisecond}, {1, 2 * time.Second}, {8, 2 * time.Second}, {64, 2 * time.Second}, {16, time.Second}, {0, 0}} {
			s := GenerateFleetSchedule(seed, c.shards, c.horizon)
			d.add(int64(s.Seed), int64(s.Shards), int64(len(s.Events)))
			for _, ev := range s.Events {
				d.add(int64(ev.Shard), int64(ev.Kind), int64(ev.Start), int64(ev.End))
			}
		}
		// The churn corpus (4 → 10 shards, 500 ms budget → 400 ms
		// horizon) and the shape tests' 4 → 16.
		pool := 0
		for _, c := range []struct {
			base, peak int
			horizon    time.Duration
		}{{4, 10, 400 * time.Millisecond}, {4, 16, 2 * time.Second}, {0, 0, 0}} {
			s := GenerateMembershipSchedule(seed, c.base, c.peak, c.horizon)
			d.add(int64(s.Seed), int64(s.Base), int64(s.Peak), int64(len(s.Events)))
			for _, ev := range s.Events {
				d.add(int64(ev.Shard), int64(ev.Op), int64(ev.At), int64(ev.Dwell))
			}
			if pool == 0 {
				// The identities the churn corpus provisions, as its plan
				// counts them: the WAN tier of that corpus spans them all.
				pool = s.Base
				for _, ev := range s.Events {
					pool = max(pool, ev.Shard+1)
				}
			}
		}
		// The HA corpus (2 replicas over 8 shards), the churn corpus's
		// WAN tier over its pool, and the shape tests' 3 × 16.
		for _, c := range []struct {
			replicas, shards int
			horizon          time.Duration
		}{{2, 8, 320 * time.Millisecond}, {2, pool, 400 * time.Millisecond}, {3, 16, 2 * time.Second}, {2, 16, 2 * time.Second}, {0, 0, 0}} {
			s := GenerateWANSchedule(seed, c.replicas, c.shards, c.horizon)
			d.add(int64(s.Seed), int64(s.Replicas), int64(s.Shards), int64(len(s.Events)))
			for _, ev := range s.Events {
				d.add(int64(ev.Agg), int64(ev.Shard), int64(ev.Kind), int64(ev.Dir), int64(ev.Delay), int64(ev.Start), int64(ev.End))
			}
		}
	}
	if got := fmt.Sprintf("%016x", d.h.Sum64()); got != planDigest {
		t.Fatalf("generator plans digest %s, want %s: a generator draws different plans, and every corpus report and pinned finding moves with them", got, planDigest)
	}
}

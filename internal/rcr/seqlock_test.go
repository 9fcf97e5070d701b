package rcr

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// populate writes a representative meter population: system totals plus
// power/energy/concurrency per socket and duty cycle per core.
func populate(bb *Blackboard, now time.Duration) {
	bb.SetSystem(MeterPower, 141.5, now)
	bb.SetSystem(MeterEnergy, 9000, now)
	bb.SetSystem(MeterHeartbeat, 7, now)
	for s := 0; s < bb.Sockets(); s++ {
		bb.SetSocket(s, MeterPower, 70+float64(s), now)
		bb.SetSocket(s, MeterEnergy, 4500, now)
		bb.SetSocket(s, MeterMemConcurrency, 12, now)
		bb.SetSocket(s, MeterMemBandwidth, 1e9, now)
		bb.SetSocket(s, MeterTemperature, 55, now)
	}
	for c := 0; c < bb.Cores(); c++ {
		bb.SetCore(c, MeterDutyCycle, 0.5, now)
	}
}

// TestSeqlockReadAllocs: the same-process read path — single meters and
// whole snapshots — must not allocate. This is the shared-memory claim
// of the design: daemons polling the blackboard at 10 Hz cost the
// sampler nothing and the GC nothing.
func TestSeqlockReadAllocs(t *testing.T) {
	bb, _ := NewBlackboard(2, 8)
	populate(bb, time.Second)
	var sink Meter
	if n := testing.AllocsPerRun(1000, func() {
		sink, _ = bb.System(MeterPower)
		sink, _ = bb.Socket(1, MeterMemConcurrency)
	}); n != 0 {
		t.Errorf("meter reads allocate %.1f/op, want 0", n)
	}
	_ = sink

	var snap Snapshot
	bb.SnapshotInto(&snap, time.Second) // warm the scratch
	if n := testing.AllocsPerRun(1000, func() {
		bb.SnapshotInto(&snap, 2*time.Second)
	}); n != 0 {
		t.Errorf("SnapshotInto allocates %.1f/op on a warm scratch, want 0", n)
	}
}

// TestAppendSnapshotAllocs: encoding into a warm buffer must not
// allocate (exact-size precompute, no incremental growth).
func TestAppendSnapshotAllocs(t *testing.T) {
	bb, _ := NewBlackboard(2, 8)
	populate(bb, time.Second)
	snap := snapshotOf(bb, time.Second)
	buf := AppendSnapshot(nil, snap)
	if n := testing.AllocsPerRun(1000, func() {
		buf = AppendSnapshot(buf[:0], snap)
	}); n != 0 {
		t.Errorf("AppendSnapshot allocates %.1f/op on a warm buffer, want 0", n)
	}
	if !bytes.Equal(buf, AppendSnapshot(nil, snap)) {
		t.Error("AppendSnapshot into a warm buffer and into nil disagree")
	}
}

// TestDeltaEncodeAllocs: the per-tick publisher work — scan the board
// for changes and serialize them — must not allocate once the scratch
// frame and buffer are warm. This is what makes a 1k-subscriber fan-out
// one encode and zero garbage per tick.
func TestDeltaEncodeAllocs(t *testing.T) {
	bb, _ := NewBlackboard(2, 8)
	populate(bb, time.Second)
	var f DeltaFrame
	bb.CollectDelta(0, &f)
	buf := AppendDeltaFrame(nil, &f)
	since := uint64(0)
	now := time.Second
	if n := testing.AllocsPerRun(1000, func() {
		now += time.Millisecond
		bb.SetSocket(0, MeterPower, 71, now) // keep the delta non-empty
		bb.CollectDelta(since, &f)
		buf = AppendDeltaFrame(buf[:0], &f)
		since = f.To
	}); n != 0 {
		t.Errorf("delta collect+encode allocates %.1f/op on warm scratch, want 0", n)
	}
}

// TestDeltaDecodeAllocs: the subscriber side of the same tick — decode a
// pushed delta into the subscription's frame — must not allocate once
// that frame is warm, whichever of a large change, a small one and a
// heartbeat comes next, and what a reused frame holds must be what a
// fresh one would.
func TestDeltaDecodeAllocs(t *testing.T) {
	bb, _ := NewBlackboard(2, 8)
	var out DeltaFrame
	populate(bb, time.Second)
	bb.CollectDelta(0, &out)
	large := AppendDeltaFrame(nil, &out)
	bb.SetSocket(0, MeterPower, 71, 2*time.Second)
	bb.CollectDelta(out.To, &out)
	small := AppendDeltaFrame(nil, &out)
	bb.CollectDelta(out.To, &out)
	heartbeat := AppendDeltaFrame(nil, &out)

	var f DeltaFrame
	if n := testing.AllocsPerRun(1000, func() {
		for _, frame := range [][]byte{large, small, heartbeat, large} {
			if err := DecodeDeltaFrame(frame, &f); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Errorf("DecodeDeltaFrame allocates %.1f/op into a warm frame, want 0", n)
	}
	for _, frame := range [][]byte{small, large} {
		var fresh DeltaFrame
		if err := DecodeDeltaFrame(frame, &fresh); err != nil {
			t.Fatal(err)
		}
		if err := DecodeDeltaFrame(frame, &f); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(f, fresh) {
			t.Errorf("reused frame decoded %+v, a fresh one %+v", f, fresh)
		}
	}
}

// TestSnapshotMaterializeAllocs: the two client-side ways to a Snapshot
// — decoding a GET response and materializing a subscription's state —
// allocate per snapshot, not per meter: one backing array for the
// meters, the socket list and the core lists, and no name strings for
// the standard meters. A 2×8 board with the sampler's meter set holds
// 29 meters.
func TestSnapshotMaterializeAllocs(t *testing.T) {
	bb, _ := NewBlackboard(2, 8)
	populate(bb, time.Second)
	want := snapshotOf(bb, time.Second)
	enc := AppendSnapshot(nil, want)
	var got Snapshot
	if n := testing.AllocsPerRun(1000, func() {
		got, _ = DecodeSnapshot(enc)
	}); n > 4 {
		t.Errorf("DecodeSnapshot allocates %.1f/op, want <= 4", n)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("decoded %+v, encoded %+v", got, want)
	}

	var full FullFrame
	bb.CollectFull(&full)
	full.Now = time.Second
	var st SubState
	if err := st.ApplyFull(&full); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() {
		got = st.Snapshot()
	}); n > 4 {
		t.Errorf("SubState.Snapshot allocates %.1f/op, want <= 4", n)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("materialized %+v, board %+v", got, want)
	}
}

// TestSnapshotListsCapped: the meter lists share one backing array, so
// each is capped at its own length — a caller appending to one list
// reallocates it instead of overwriting the next.
func TestSnapshotListsCapped(t *testing.T) {
	bb, _ := NewBlackboard(2, 2)
	populate(bb, time.Second)
	var full FullFrame
	bb.CollectFull(&full)
	var st SubState
	if err := st.ApplyFull(&full); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSnapshot(AppendSnapshot(nil, snapshotOf(bb, 0)))
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]Snapshot{"decoded": decoded, "materialized": st.Snapshot()} {
		want := snapshotOf(bb, s.Now)
		_ = append(s.System, MeterValue{Name: "x"})
		for i := range s.Sockets {
			_ = append(s.Sockets[i].Meters, MeterValue{Name: "x"})
			_ = append(s.Sockets[i].Cores, []MeterValue{{Name: "x"}})
			for c := range s.Sockets[i].Cores {
				_ = append(s.Sockets[i].Cores[c], MeterValue{Name: "x"})
			}
		}
		if !reflect.DeepEqual(s, want) {
			t.Errorf("%s: appending to its lists changed the snapshot:\n got %+v\nwant %+v", name, s, want)
		}
	}
}

// TestSnapshotEncodeDeterministic (golden): two boards reaching the same
// state through different write orders — and hence different slot
// registration orders — must encode byte-identically, and re-encoding
// the same board twice must be bit-stable. The order is fixed at
// registration (name-sorted), not at encode time.
func TestSnapshotEncodeDeterministic(t *testing.T) {
	type write struct {
		set  func(bb *Blackboard)
		name string
	}
	writes := []write{
		{func(bb *Blackboard) { bb.SetSystem("zeta", 1, time.Second) }, "zeta"},
		{func(bb *Blackboard) { bb.SetSystem("alpha", 2, time.Second) }, "alpha"},
		{func(bb *Blackboard) { bb.SetSocket(0, MeterPower, 70, time.Second) }, "power"},
		{func(bb *Blackboard) { bb.SetSocket(1, MeterEnergy, 900, time.Second) }, "energy"},
		{func(bb *Blackboard) { bb.SetCore(2, MeterDutyCycle, 0.25, time.Second) }, "duty"},
	}
	forward, _ := NewBlackboard(2, 2)
	for _, w := range writes {
		w.set(forward)
	}
	backward, _ := NewBlackboard(2, 2)
	for i := len(writes) - 1; i >= 0; i-- {
		writes[i].set(backward)
	}
	a := AppendSnapshot(nil, snapshotOf(forward, 3*time.Second))
	b := AppendSnapshot(nil, snapshotOf(backward, 3*time.Second))
	if !bytes.Equal(a, b) {
		t.Fatalf("write order changed the encoding:\n fwd %x\n rev %x", a, b)
	}
	if again := AppendSnapshot(nil, snapshotOf(forward, 3*time.Second)); !bytes.Equal(a, again) {
		t.Fatal("re-encoding identical state is not bit-stable")
	}
}

// TestBlackboardVersion: the publish version advances once per write and
// an untouched board keeps its version — the invariant the delta stream
// (an unchanged tick is a heartbeat) is built on.
func TestBlackboardVersion(t *testing.T) {
	bb, _ := NewBlackboard(1, 2)
	if v := bb.pub.Load(); v != 0 {
		t.Fatalf("fresh board version = %d, want 0", v)
	}
	bb.SetSystem(MeterPower, 1, time.Second)
	bb.SetSocket(0, MeterPower, 2, time.Second)
	if v := bb.pub.Load(); v != 2 {
		t.Fatalf("version after 2 writes = %d, want 2", v)
	}
	var f DeltaFrame
	bb.CollectDelta(bb.pub.Load(), &f)
	if !f.Heartbeat() {
		t.Error("delta since current version is not a heartbeat")
	}
	gen := bb.SchemaGen()
	bb.SetSystem(MeterPower, 3, 2*time.Second) // existing name: no schema change
	if bb.SchemaGen() != gen {
		t.Error("rewriting an existing meter bumped the schema generation")
	}
	bb.SetSystem("brand-new", 1, 2*time.Second)
	if bb.SchemaGen() == gen {
		t.Error("registering a new meter did not bump the schema generation")
	}
}

// TestSeqlockTornReads: a writer republishing (v, v) pairs must never be
// seen torn — every concurrent read must observe Value and Updated from
// the same publish. Catches seqlock ordering bugs under -race and under
// raw contention.
func TestSeqlockTornReads(t *testing.T) {
	bb, _ := NewBlackboard(1, 1)
	bb.SetSocket(0, MeterPower, 0, 0)
	stop := make(chan struct{})
	var wrote atomic.Uint64
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := uint64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			bb.SetSocket(0, MeterPower, float64(i), time.Duration(i))
			wrote.Store(i)
		}
	}()
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for n := 0; n < 50000; n++ {
				m, ok := bb.Socket(0, MeterPower)
				if !ok {
					t.Error("meter vanished")
					return
				}
				if m.Value != float64(m.Updated) {
					t.Errorf("torn read: value %v, updated %d", m.Value, m.Updated)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	<-writerDone
	if wrote.Load() == 0 {
		t.Error("writer never ran")
	}
}

// rwBlackboard is the previous RWMutex+map design, kept here as the
// contention baseline for BenchmarkBlackboardContention.
type rwBlackboard struct {
	mu sync.RWMutex
	m  map[string]Meter
}

func (b *rwBlackboard) set(name string, v float64, now time.Duration) {
	b.mu.Lock()
	b.m[name] = Meter{Value: v, Updated: now}
	b.mu.Unlock()
}

func (b *rwBlackboard) get(name string) (Meter, bool) {
	b.mu.RLock()
	m, ok := b.m[name]
	b.mu.RUnlock()
	return m, ok
}

// BenchmarkBlackboardContention measures single-meter read throughput
// while a writer republishes at full speed — the daemon-vs-sampler
// contention pattern. Compare the seqlock board against the old
// RWMutex+map design.
func BenchmarkBlackboardContention(b *testing.B) {
	b.Run("seqlock", func(b *testing.B) {
		bb, _ := NewBlackboard(1, 1)
		bb.SetSocket(0, MeterPower, 1, 0)
		stop := make(chan struct{})
		go func() {
			for i := uint64(1); ; i++ {
				select {
				case <-stop:
					return
				default:
					bb.SetSocket(0, MeterPower, float64(i), time.Duration(i))
				}
			}
		}()
		defer close(stop)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, ok := bb.Socket(0, MeterPower); !ok {
					b.Fatal("meter vanished")
				}
			}
		})
	})
	b.Run("rwmutex", func(b *testing.B) {
		bb := &rwBlackboard{m: map[string]Meter{MeterPower: {}}}
		stop := make(chan struct{})
		go func() {
			for i := uint64(1); ; i++ {
				select {
				case <-stop:
					return
				default:
					bb.set(MeterPower, float64(i), time.Duration(i))
				}
			}
		}()
		defer close(stop)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, ok := bb.get(MeterPower); !ok {
					b.Fatal("meter vanished")
				}
			}
		})
	})
}

// BenchmarkSnapshotInto measures the whole-board copy on the warm
// scratch path the IPC workers use.
func BenchmarkSnapshotInto(b *testing.B) {
	for _, cores := range []int{8, 64} {
		b.Run(fmt.Sprintf("cores=%d", cores), func(b *testing.B) {
			bb, _ := NewBlackboard(2, cores/2)
			populate(bb, time.Second)
			var s Snapshot
			bb.SnapshotInto(&s, time.Second)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bb.SnapshotInto(&s, time.Second)
			}
		})
	}
}

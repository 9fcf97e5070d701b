// Package rcr implements the Resource Centric Reflection daemon of the
// paper (§II-B): a sampler that periodically reads hardware counters
// (RAPL energy, memory concurrency, temperature) into a self-describing
// hierarchical blackboard, a region-measurement API that reports elapsed
// time, Joules, average Watts and chip temperatures for a bracketed code
// region, a compact binary snapshot encoding, and a Unix-socket server so
// external clients can query the blackboard like the real RCRdaemon's
// shared-memory region — or subscribe to pushed delta frames (pubsub.go),
// the closest IPC analogue of polling shared memory at zero cost.
package rcr

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Standard meter names written by the sampler. Clients address meters by
// these names; the blackboard itself is schema-free — a name registers a
// slot on first write.
const (
	MeterEnergy         = "energy"  // cumulative Joules
	MeterPower          = "power"   // average Watts over the last sample window
	MeterMemBandwidth   = "membw"   // bytes/second
	MeterMemConcurrency = "memconc" // outstanding memory references
	MeterTemperature    = "temp"    // °C
	MeterDutyCycle      = "duty"    // effective clock fraction (core scope)
	// MeterHeartbeat is the sampler's liveness beacon (system scope): its
	// value counts completed sample ticks, and — more importantly — its
	// Updated stamp is the last instant the sampler was alive. The
	// sampler's watchdog restarts it when its heartbeat goes stale.
	MeterHeartbeat = "heartbeat"
)

// Meter is one measured value with its last-update timestamp (virtual
// time).
type Meter struct {
	Value   float64
	Updated time.Duration
}

// Clock supplies the current (virtual or wall) time for timestamps and
// regions. *machine.Machine satisfies it.
type Clock interface {
	Now() time.Duration
}

// Blackboard is the shared measurement store: system-level meters, one
// domain per socket, one per core — the reproduction of the RCRdaemon's
// shared-memory region.
//
// Storage is a fixed-slot, schema-registered layout: the first write of
// a meter name registers it in a copy-on-write name table and assigns a
// slot per scope (system, each socket, each core). Every slot is guarded
// by its own seqlock — an even/odd version counter bracketing atomic
// field publishes — so readers never block writers and never take a
// lock: they retry the (sub-nanosecond) copy on the rare overlap with a
// write. Same-process consumers (the MAESTRO daemon, the power cap, the
// history recorder, the region API) therefore read meters and whole
// snapshots with zero allocations and zero lock contention against the
// sampler, which is the point of the paper's shared-memory design.
//
// One writer (the sampler) and many readers are the intended pattern;
// concurrent writers are nevertheless safe (a mutex serializes them —
// uncontended in the single-writer case). Consistency is per meter: a
// reader always sees a (Value, Updated) pair from one publish, but a
// multi-meter snapshot may interleave with a concurrent write burst,
// exactly as the previous per-call-locked implementation allowed.
//
// Every write also advances a monotonic publish version recorded in the
// written slot, which is what the delta encoder (delta.go) diffs
// against: encoding "what changed since version V" is a scan, not a
// serialization of the whole board.
type Blackboard struct {
	nSock   int
	perSock int
	nScopes int // 1 + nSock + nSock*perSock

	wmu    sync.Mutex // serializes writers and schema growth
	schema atomic.Pointer[bbSchema]
	slots  atomic.Pointer[[]*slot]
	pub    atomic.Uint64 // monotonic publish version; 0 = nothing written

	met atomic.Pointer[bbMetrics]
}

// bbSchema is the registered name table, replaced copy-on-write when a
// new meter name appears (rare; the standard meter set registers within
// the first sample tick and then never changes).
type bbSchema struct {
	gen   uint32         // bumped per registration; delta streams resync on change
	ids   map[string]int // name → meter id
	names []string       // meter id → name, registration order
	// sorted holds meter ids in name-sorted order. Snapshot encoding
	// walks it, so the byte stream is bit-stable without any per-call
	// sort: the order is fixed at registration time.
	sorted []int
}

// slot is one (meter, scope) cell. The seqlock makes the three-field
// publish atomic to readers; the fields themselves are atomics so the
// retry loop is race-detector-clean.
type slot struct {
	seq  atomic.Uint32 // even = stable, odd = write in progress
	bits atomic.Uint64 // math.Float64bits of the value
	upd  atomic.Int64  // Updated, ns
	ver  atomic.Uint64 // publish version of the last write; 0 = never written
}

// load copies the slot under the seqlock retry loop.
func (sl *slot) load() (bits uint64, upd int64, ver uint64) {
	for {
		s1 := sl.seq.Load()
		if s1&1 == 0 {
			bits = sl.bits.Load()
			upd = sl.upd.Load()
			ver = sl.ver.Load()
			if sl.seq.Load() == s1 {
				return
			}
		}
		// A write is in flight; it holds the odd state for a handful of
		// atomic stores, so spinning (no yield, no sleep) is the right
		// wait.
	}
}

// store publishes the slot (writer side; callers hold bb.wmu).
func (sl *slot) store(bits uint64, upd int64, ver uint64) {
	sl.seq.Add(1) // odd: readers retry
	sl.bits.Store(bits)
	sl.upd.Store(upd)
	sl.ver.Store(ver)
	sl.seq.Add(1) // even: stable
}

// bbMetrics counts blackboard traffic; installed by Instrument over the
// empty set NewBlackboard seeds.
type bbMetrics struct {
	writes *telemetry.Counter
	reads  *telemetry.Counter
}

// NewBlackboard creates a blackboard for a node topology.
func NewBlackboard(sockets, coresPerSocket int) (*Blackboard, error) {
	if sockets <= 0 || coresPerSocket <= 0 {
		return nil, fmt.Errorf("rcr: invalid topology %d sockets × %d cores", sockets, coresPerSocket)
	}
	bb := &Blackboard{
		nSock:   sockets,
		perSock: coresPerSocket,
		nScopes: 1 + sockets + sockets*coresPerSocket,
	}
	bb.schema.Store(&bbSchema{ids: map[string]int{}})
	empty := []*slot{}
	bb.slots.Store(&empty)
	bb.met.Store(&bbMetrics{})
	return bb, nil
}

// Instrument registers write/read counters for the blackboard in reg —
// the traffic rates behind "how hot is the measurement path". Safe to
// call while samplers and daemons are running.
func (bb *Blackboard) Instrument(reg *telemetry.Registry) {
	bb.met.Store(&bbMetrics{
		writes: reg.Counter("rcr_blackboard_writes_total"),
		reads:  reg.Counter("rcr_blackboard_reads_total"),
	})
}

func (bb *Blackboard) countWrite() { bb.met.Load().writes.Inc() }

func (bb *Blackboard) countRead() { bb.met.Load().reads.Inc() }

// Sockets returns the number of socket domains.
func (bb *Blackboard) Sockets() int { return bb.nSock }

// Cores returns the total number of core domains.
func (bb *Blackboard) Cores() int { return bb.nSock * bb.perSock }

// SchemaGen returns the schema generation, bumped whenever a new meter
// name registers a slot. Delta subscribers resync on a change.
func (bb *Blackboard) SchemaGen() uint32 { return bb.schema.Load().gen }

// Scope indices: slot index = meterID*nScopes + scope.
func (bb *Blackboard) systemScope() int           { return 0 }
func (bb *Blackboard) socketScope(socket int) int { return 1 + socket }
func (bb *Blackboard) coreScope(core int) int     { return 1 + bb.nSock + core }

// register adds a meter name under wmu and returns its id. Slot growth
// appends pointers, so slots already handed to readers stay valid.
func (bb *Blackboard) register(sc *bbSchema, name string) int {
	if len(sc.names) >= maxMeters {
		panic(fmt.Sprintf("rcr: blackboard meter-name table full (%d names); runaway registration", maxMeters))
	}
	id := len(sc.names)
	ns := &bbSchema{
		gen:    sc.gen + 1,
		ids:    make(map[string]int, len(sc.ids)+1),
		names:  make([]string, 0, id+1),
		sorted: make([]int, 0, id+1),
	}
	for k, v := range sc.ids {
		ns.ids[k] = v
	}
	ns.ids[name] = id
	ns.names = append(ns.names, sc.names...)
	ns.names = append(ns.names, name)
	// Keep the sorted index incrementally: insert the new id at its
	// name-sorted position.
	pos := sort.Search(len(sc.sorted), func(i int) bool { return sc.names[sc.sorted[i]] >= name })
	ns.sorted = append(ns.sorted, sc.sorted[:pos]...)
	ns.sorted = append(ns.sorted, id)
	ns.sorted = append(ns.sorted, sc.sorted[pos:]...)

	cur := *bb.slots.Load()
	block := make([]slot, bb.nScopes)
	grown := make([]*slot, len(cur), len(cur)+bb.nScopes)
	copy(grown, cur)
	for i := range block {
		grown = append(grown, &block[i])
	}
	// Publish slots before the schema: a reader observing the new schema
	// is guaranteed to observe at least the new slots slice.
	bb.slots.Store(&grown)
	bb.schema.Store(ns)
	return id
}

// set publishes one meter (any scope).
func (bb *Blackboard) set(scope int, name string, v float64, now time.Duration) {
	bb.countWrite()
	bb.wmu.Lock()
	sc := bb.schema.Load()
	id, ok := sc.ids[name]
	if !ok {
		id = bb.register(sc, name)
	}
	sl := (*bb.slots.Load())[id*bb.nScopes+scope]
	ver := bb.pub.Add(1)
	sl.store(math.Float64bits(v), int64(now), ver)
	bb.wmu.Unlock()
}

// get reads one meter (any scope); zero allocations.
func (bb *Blackboard) get(scope int, name string) (Meter, bool) {
	sc := bb.schema.Load()
	id, ok := sc.ids[name]
	if !ok {
		return Meter{}, false
	}
	sl := (*bb.slots.Load())[id*bb.nScopes+scope]
	bits, upd, ver := sl.load()
	if ver == 0 {
		return Meter{}, false
	}
	return Meter{Value: math.Float64frombits(bits), Updated: time.Duration(upd)}, true
}

// SetSystem writes a system-level meter.
func (bb *Blackboard) SetSystem(name string, v float64, now time.Duration) {
	bb.set(bb.systemScope(), name, v, now)
}

// SetSocket writes a socket-level meter. Out-of-range sockets are a
// programming error and panic.
func (bb *Blackboard) SetSocket(socket int, name string, v float64, now time.Duration) {
	if socket < 0 || socket >= bb.nSock {
		panic(fmt.Sprintf("rcr: socket %d out of range [0,%d)", socket, bb.nSock))
	}
	bb.set(bb.socketScope(socket), name, v, now)
}

// SetCore writes a core-level meter.
func (bb *Blackboard) SetCore(core int, name string, v float64, now time.Duration) {
	if core < 0 || core >= bb.Cores() {
		panic(fmt.Sprintf("rcr: core %d out of range [0,%d)", core, bb.Cores()))
	}
	bb.set(bb.coreScope(core), name, v, now)
}

// System reads a system-level meter.
func (bb *Blackboard) System(name string) (Meter, bool) {
	bb.countRead()
	return bb.get(bb.systemScope(), name)
}

// Socket reads a socket-level meter.
func (bb *Blackboard) Socket(socket int, name string) (Meter, bool) {
	bb.countRead()
	if socket < 0 || socket >= bb.nSock {
		return Meter{}, false
	}
	return bb.get(bb.socketScope(socket), name)
}

// MeterValue is one named meter inside a snapshot.
type MeterValue struct {
	Name    string
	Value   float64
	Updated time.Duration
}

// DomainSnap is the snapshot of one socket domain and its cores.
type DomainSnap struct {
	Meters []MeterValue
	Cores  [][]MeterValue
}

// Snapshot is a deep, immutable copy of the blackboard, with meters in
// deterministic (name-sorted) order, suitable for encoding.
type Snapshot struct {
	Now     time.Duration
	System  []MeterValue
	Sockets []DomainSnap
}

// WriteJSON emits the snapshot as indented JSON — the interop-friendly
// alternative to the compact binary encoding, for piping rcrd queries
// into other tooling.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Snapshot copies the blackboard. Each call allocates a fresh Snapshot;
// hot paths (the IPC server's per-connection workers) use SnapshotInto
// with a reused scratch instead.
func (bb *Blackboard) Snapshot(now time.Duration) Snapshot {
	var s Snapshot
	bb.SnapshotInto(&s, now)
	return s
}

// SnapshotInto fills s from the blackboard, reusing s's backing arrays:
// a scratch Snapshot refilled every cycle reaches zero allocations per
// call once its slices have grown to the board's meter population. Meter
// order is deterministic (name-sorted, fixed at registration), so two
// snapshots of identical state encode byte-identically.
func (bb *Blackboard) SnapshotInto(s *Snapshot, now time.Duration) {
	bb.countRead()
	sc := bb.schema.Load()
	slots := *bb.slots.Load()
	s.Now = now
	s.System = bb.appendScope(s.System[:0], sc, slots, bb.systemScope())
	if cap(s.Sockets) < bb.nSock {
		s.Sockets = make([]DomainSnap, bb.nSock)
	} else {
		s.Sockets = s.Sockets[:bb.nSock]
	}
	for i := 0; i < bb.nSock; i++ {
		ds := &s.Sockets[i]
		ds.Meters = bb.appendScope(ds.Meters[:0], sc, slots, bb.socketScope(i))
		if cap(ds.Cores) < bb.perSock {
			ds.Cores = make([][]MeterValue, bb.perSock)
		} else {
			ds.Cores = ds.Cores[:bb.perSock]
		}
		for c := 0; c < bb.perSock; c++ {
			ds.Cores[c] = bb.appendScope(ds.Cores[c][:0], sc, slots, bb.coreScope(i*bb.perSock+c))
		}
	}
}

// appendScope appends one scope's present meters in name-sorted order.
// The result is never nil (decode and JSON round-trips distinguish empty
// from absent).
func (bb *Blackboard) appendScope(dst []MeterValue, sc *bbSchema, slots []*slot, scope int) []MeterValue {
	if dst == nil {
		dst = make([]MeterValue, 0, len(sc.sorted))
	}
	for _, id := range sc.sorted {
		idx := id*bb.nScopes + scope
		if idx >= len(slots) {
			continue // schema newer than the slots slice we loaded
		}
		bits, upd, ver := slots[idx].load()
		if ver == 0 {
			continue
		}
		dst = append(dst, MeterValue{
			Name:    sc.names[id],
			Value:   math.Float64frombits(bits),
			Updated: time.Duration(upd),
		})
	}
	return dst
}

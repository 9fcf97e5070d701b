package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/rcr"
	"repro/internal/resilience"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// The monitor-mix scenario is the rcr service path: one node's
// blackboard behind a real rcr.Server, read by push (a subscription
// stream) and by poll (GET through the resilience client) beside fenced
// cap writes. One driver goroutine takes the three access paths in turn,
// so a gain for one that costs another shows in the same run.

const (
	monSockets = 2
	monCores   = 8
)

type monitorFixture struct {
	rep    *report
	tr     *tracer
	dir    string
	addr   string
	clock  func() time.Duration
	reg    *telemetry.Registry
	bb     *rcr.Blackboard
	srv    *rcr.Server
	serve  chan error
	sub    *rcr.Subscription
	client *resilience.Client
	rng    *rand.Rand

	applied  atomic.Uint64 // bits of the last cap the guard actuated, on a server goroutine
	seq      uint64
	round    int64
	ticks    int
	getBytes int
	parent   int // span the transport seam nests under
}

func setupMonitor(cfg config, rep *report) (*monitorFixture, error) {
	f := &monitorFixture{
		rep:    rep,
		clock:  hostClock(),
		reg:    telemetry.NewRegistry(),
		rng:    rand.New(rand.NewSource(cfg.seed ^ 0x30b1708)),
		parent: -1,
	}
	var err error
	if f.dir, err = newSockDir(cfg.outDir); err != nil {
		return nil, err
	}
	f.addr = filepath.Join(f.dir, "rcrd.sock")
	if f.bb, err = rcr.NewBlackboard(monSockets, monCores); err != nil {
		f.close()
		return nil, err
	}
	f.bb.Instrument(f.reg)
	// The paper's meter set, as the sampler and the daemon publish it.
	now := f.clock()
	for s := 0; s < monSockets; s++ {
		for _, m := range []string{rcr.MeterEnergy, rcr.MeterPower, rcr.MeterMemBandwidth, rcr.MeterMemConcurrency, rcr.MeterTemperature} {
			f.bb.SetSocket(s, m, f.rng.Float64(), now)
		}
	}
	for c := 0; c < monSockets*monCores; c++ {
		f.bb.SetCore(c, rcr.MeterDutyCycle, 1, now)
	}
	f.bb.SetSystem(rcr.MeterEnergy, 0, now)
	f.bb.SetSystem(rcr.MeterPower, 0, now)
	f.bb.SetSystem(rcr.MeterHeartbeat, 0, now)

	guard := rcr.NewFenceGuard(f.clock, func(cap float64, _ uint64) error {
		f.applied.Store(math.Float64bits(cap))
		return nil
	})
	guard.Instrument(f.reg)
	guard.Bind(f.bb)

	ln, err := net.Listen("unix", f.addr)
	if err != nil {
		f.close()
		return nil, err
	}
	f.srv = rcr.NewServer(f.bb, clockFunc(f.clock), ln)
	f.srv.Pub = rcr.NewPublisher(f.bb)
	f.srv.Pub.Instrument(f.reg)
	f.srv.Fence = guard
	f.srv.Instrument(f.reg)
	f.serve = make(chan error, 1)
	go func() { f.serve <- f.srv.Serve() }()

	ctx, cancel := context.WithTimeout(context.Background(), ipcTimeout)
	defer cancel()
	if f.sub, err = rcr.Subscribe(ctx, "unix", f.addr); err != nil {
		f.close()
		return nil, err
	}
	if !pollUntil(func() bool { return f.srv.Pub.Subscribers() == 1 }) {
		f.close()
		return nil, errors.New("monitor-mix: subscription never attached")
	}
	f.client, err = resilience.NewClient(resilience.ClientConfig{
		Addrs:     []string{f.addr},
		Clock:     f.clock,
		Telemetry: f.reg,
		Query: func(ctx context.Context, network, addr string) (rcr.Snapshot, error) {
			h := f.tr.begin("rcr.ipc.get", f.parent, f.round)
			defer f.tr.end(h)
			return rcr.QueryContext(ctx, network, addr)
		},
	})
	if err != nil {
		f.close()
		return nil, err
	}
	// First converged state: each access path has answered once.
	if _, err := f.subObs(); err != nil {
		f.close()
		return nil, err
	}
	if _, err := f.pollObs(); err != nil {
		f.close()
		return nil, err
	}
	if _, err := f.capWrite(); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *monitorFixture) close() {
	if f.sub != nil {
		f.sub.Close()
	}
	if f.srv != nil {
		_ = f.srv.Close() // teardown: the run's results are already in
		<-f.serve
	}
	os.RemoveAll(f.dir)
}

// write4 publishes fresh power and memory-concurrency readings for both
// sockets and returns socket 0's power, the value the readers must see.
func (f *monitorFixture) write4() float64 {
	now := f.clock()
	h := f.tr.begin("rcr.blackboard.set", f.parent, f.round)
	p0 := 40 + 60*f.rng.Float64()
	f.bb.SetSocket(0, rcr.MeterPower, p0, now)
	f.bb.SetSocket(0, rcr.MeterMemConcurrency, 28*f.rng.Float64(), now)
	f.bb.SetSocket(1, rcr.MeterPower, 40+60*f.rng.Float64(), now)
	f.bb.SetSocket(1, rcr.MeterMemConcurrency, 28*f.rng.Float64(), now)
	f.tr.end(h)
	return p0
}

func socketPower(s rcr.Snapshot) (float64, bool) {
	if len(s.Sockets) == 0 {
		return 0, false
	}
	for _, m := range s.Sockets[0].Meters {
		if m.Name == rcr.MeterPower {
			return m.Value, true
		}
	}
	return 0, false
}

// subObs is the push path: write → publisher tick → frame applied at
// the subscriber. The returned time covers all three.
func (f *monitorFixture) subObs() (time.Duration, error) {
	f.round++
	f.parent = f.tr.begin("monitor.sub_obs", -1, f.round)
	t0 := time.Now()
	want := f.write4()
	h := f.tr.begin("rcr.pubsub.tick", f.parent, f.round)
	f.srv.Pub.Tick(f.clock())
	f.tr.end(h)
	h = f.tr.begin("rcr.sub.next", f.parent, f.round)
	err := f.sub.Next(context.Background())
	f.tr.end(h)
	d := time.Since(t0)
	f.tr.end(f.parent)
	f.parent = -1
	f.ticks++
	if err == nil {
		if got, ok := socketPower(f.sub.Snapshot()); !ok || got != want {
			err = fmt.Errorf("subscriber sees socket power %v, wrote %v", got, want)
		}
	}
	f.rep.op(err == nil, "monitor-mix: round %d: subscription: %v", f.round, err)
	return d, err
}

// pollObs is the poll path: write → GET through the resilience client.
func (f *monitorFixture) pollObs() (time.Duration, error) {
	f.round++
	root := f.tr.begin("monitor.poll_obs", -1, f.round)
	f.parent = root
	t0 := time.Now()
	want := f.write4()
	f.parent = f.tr.begin("resilience.client.query", root, f.round)
	ctx, cancel := context.WithTimeout(context.Background(), ipcTimeout)
	snap, err := f.client.Query(ctx)
	cancel()
	f.tr.end(f.parent)
	d := time.Since(t0)
	f.tr.end(root)
	f.parent = -1
	if err == nil {
		if got, ok := socketPower(snap); !ok || got != want {
			err = fmt.Errorf("poll sees socket power %v, wrote %v", got, want)
		}
		f.getBytes = len(rcr.AppendSnapshot(nil, snap))
	}
	f.rep.op(err == nil, "monitor-mix: round %d: query: %v", f.round, err)
	return d, err
}

// capWrite is the write path: one fenced cap write, strictly
// increasing sequence, acked with the cap the guard actuated.
func (f *monitorFixture) capWrite() (time.Duration, error) {
	f.round++
	f.seq++
	w := rcr.CapWrite{Fence: 1, Leader: 1, Seq: f.seq, Lease: time.Minute, HasCap: true, Cap: 60 + 80*f.rng.Float64()}
	h := f.tr.begin("rcr.fence.cap", -1, f.round)
	t0 := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), ipcTimeout)
	ack, err := rcr.WriteCap(ctx, "unix", f.addr, w)
	cancel()
	d := time.Since(t0)
	f.tr.end(h)
	switch {
	case err != nil:
	case ack.Status != rcr.CapApplied:
		err = fmt.Errorf("status %d", ack.Status)
	case !ack.HasApplied || ack.Applied != w.Cap || f.applied.Load() != math.Float64bits(w.Cap):
		err = fmt.Errorf("acked %v, actuated %v, wrote %v", ack.Applied, math.Float64frombits(f.applied.Load()), w.Cap)
	}
	f.rep.op(err == nil, "monitor-mix: round %d: cap write seq %d: %v", f.round, f.seq, err)
	return d, err
}

type monitorResult struct {
	subUS, pollUS, capUS []float64
	cpu                  float64 // process CPU seconds over the loop
}

// run takes the three paths in turn until the budget is spent.
func (f *monitorFixture) run(budget time.Duration, tr *tracer) (monitorResult, error) {
	f.tr = tr
	defer func() { f.tr = nil }()
	var res monitorResult
	cpu0, start := cpuSeconds(), time.Now()
	for len(res.subUS) == 0 || time.Since(start) < budget {
		d, err := f.subObs()
		if err != nil {
			return res, err
		}
		res.subUS = append(res.subUS, us(d))
		if d, err = f.pollObs(); err != nil {
			return res, err
		}
		res.pollUS = append(res.pollUS, us(d))
		if d, err = f.capWrite(); err != nil {
			return res, err
		}
		res.capUS = append(res.capUS, us(d))
	}
	res.cpu = cpuSeconds() - cpu0
	return res, nil
}

// window files this window's medians under the end-to-end names.
func (r monitorResult) window(w windows, sc scale) {
	w.add("sub_obs_p50_us", median(r.subUS)*sc.sys)
	w.add("poll_obs_p50_us", median(r.pollUS)*sc.sys)
	w.add("cap_write_p50_us", median(r.capUS)*sc.sys)
}

func (r *monitorResult) merge(o monitorResult) {
	r.subUS = append(r.subUS, o.subUS...)
	r.pollUS = append(r.pollUS, o.pollUS...)
	r.capUS = append(r.capUS, o.capUS...)
	r.cpu += o.cpu
}

// mallocsPer runs op n times between two reads of the allocation
// counter. The count covers the whole path: client, server handler and
// publisher goroutines all allocate from the same heap.
func mallocsPer(n int, op func() error) (float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if err := op(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), nil
}

func (f *monitorFixture) emitPerLayer(r monitorResult, rep *report, tr *tracer) error {
	rep.setLatency("rcr.pubsub.tick_us_p50", "", summarize(tr.durations("rcr.pubsub.tick")))
	rep.setLatency("rcr.sub.next_us_p50", "rcr.sub.next_us_p99", summarize(tr.durations("rcr.sub.next")))
	rep.setLatency("rcr.ipc.get_us_p50", "rcr.ipc.get_us_p99", summarize(tr.durations("rcr.ipc.get")))
	rep.setLatency("resilience.client.query_us_p50", "", summarize(tr.durations("resilience.client.query")))
	rep.setLatency("rcr.fence.cap_us_p50", "rcr.fence.cap_us_p99", summarize(tr.durations("rcr.fence.cap")))

	rep.set("rcr.pubsub.full_frames", float64(f.reg.Counter("rcr_sub_full_frames_total").Value()))
	rep.set("rcr.pubsub.dropped_frames", float64(f.reg.Counter("rcr_sub_dropped_frames_total").Value()))
	rep.set("rcr.ipc.get_bytes", float64(f.getBytes))
	rep.set("rcr.ipc.requests", float64(f.reg.Counter("rcr_ipc_requests_total").Value()))
	rep.set("rcr.ipc.errors", float64(f.reg.Counter("rcr_ipc_errors_total").Value()))
	rep.set("resilience.client.retries", float64(f.reg.Counter("resilience_client_retries_total").Value()))
	rep.set("resilience.client.cache_served", float64(f.reg.Counter("resilience_client_cache_served_total").Value()))
	rep.set("rcr.fence.rejects", float64(f.reg.Counter("cluster_fence_rejects_total").Value()))

	// The paths run in turn, so each one's rate is what it would sustain
	// back to back: the inverse of its mean latency.
	rep.set("monitor.sub_obs_per_s", ratio(1e6, mean(r.subUS)))
	rep.set("monitor.get_per_s", ratio(1e6, mean(r.pollUS)))
	rep.set("monitor.cap_per_s", ratio(1e6, mean(r.capUS)))
	rep.set("monitor.cpu_us_per_op", ratio(r.cpu*1e6, float64(3*len(r.subUS))))

	// Fixed-count phases, one path at a time: allocations per operation,
	// and for the push path the bytes one tick puts on the wire (equal
	// writes make equal delta frames, so the figure is exact).
	const phaseOps = 200
	if _, err := f.subObs(); err != nil { // flushes what the other paths' writes left pending
		return err
	}
	bytes0 := f.wireBytes()
	for _, p := range []struct {
		metric string
		op     func() (time.Duration, error)
	}{
		{"monitor.mallocs_per_sub_obs", f.subObs},
		{"monitor.mallocs_per_get", f.pollObs},
		{"monitor.mallocs_per_cap", f.capWrite},
	} {
		m, err := mallocsPer(phaseOps, func() error { _, err := p.op(); return err })
		if err != nil {
			return err
		}
		rep.set(p.metric, m)
		if p.metric == "monitor.mallocs_per_sub_obs" {
			rep.set("rcr.pubsub.bytes_per_tick", (f.wireBytes()-bytes0)/phaseOps)
		}
	}
	return nil
}

// wireBytes is what the publisher has written to the subscriber so far.
// Its writer goroutine books a frame after the write that delivered it,
// so wait until every tick's frame has been counted.
func (f *monitorFixture) wireBytes() float64 {
	frames := f.reg.Counter("rcr_sub_frames_total")
	pollUntil(func() bool { return frames.Value() >= uint64(f.ticks) })
	return float64(f.reg.Counter("rcr_sub_bytes_total").Value())
}

// Direct-call probes: the codecs and the guard on their own, with no
// socket in the way, on the scenario's blackboard.

const probeIters = 20_000

func nsPer(iters int, fn func()) float64 {
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	return float64(time.Since(t0)) / float64(iters)
}

func (f *monitorFixture) runCodecProbes(rep *report) {
	now := f.clock()
	v := 0.0
	rep.set("rcr.blackboard.set_ns", nsPer(probeIters, func() {
		v++
		f.bb.SetSocket(0, rcr.MeterPower, v, now)
	}))
	var snap rcr.Snapshot
	f.bb.SnapshotInto(&snap, now)
	var buf []byte
	rep.set("rcr.encoding.append_snapshot_ns", nsPer(probeIters, func() { buf = rcr.AppendSnapshot(buf[:0], snap) }))
	var derr error
	rep.set("rcr.encoding.decode_snapshot_ns", nsPer(probeIters, func() {
		if _, err := rcr.DecodeSnapshot(buf); err != nil {
			derr = err
		}
	}))
	rep.op(derr == nil, "snapshot decode probe: %v", derr)

	// Delta path: the scenario's four-meter write, collected and encoded
	// on one side, decoded and applied on the other.
	var full rcr.FullFrame
	var st rcr.SubState
	f.bb.CollectFull(&full)
	rep.op(st.ApplyFull(&full) == nil, "delta probe: full frame did not apply")
	var out, in rcr.DeltaFrame
	frames := make([][]byte, 0, probeIters)
	ver := full.Ver
	collect := nsPer(probeIters, func() {
		f.write4()
		f.bb.CollectDelta(ver, &out)
		ver = out.To
		frames = append(frames, rcr.AppendDeltaFrame(nil, &out))
	})
	rep.set("rcr.delta.collect_encode_ns", collect)
	i := 0
	rep.set("rcr.delta.decode_apply_ns", nsPer(probeIters, func() {
		if err := rcr.DecodeDeltaFrame(frames[i], &in); err != nil {
			derr = err
		} else if err := st.ApplyDelta(&in); err != nil {
			derr = err
		}
		i++
	}))
	rep.op(derr == nil, "delta probe: %v", derr)

	guard := rcr.NewFenceGuard(f.clock, func(float64, uint64) error { return nil })
	seq := uint64(0)
	rejected := 0
	rep.set("rcr.fence.offer_ns", nsPer(probeIters, func() {
		seq++
		if guard.Offer(rcr.CapWrite{Fence: 1, Leader: 1, Seq: seq, Lease: time.Minute, HasCap: true, Cap: 100}).Status != rcr.CapApplied {
			rejected++
		}
	}))
	rep.op(rejected == 0, "fence probe: %d offers rejected", rejected)
}

// runClusterProbes measures the partitioner and the membership frame on
// their own, at the steady fleet's size.
func runClusterProbes(cfg config, rep *report) {
	n := cfg.steadyShards
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x9a27))
	nodes := make([]cluster.NodeReport, n)
	for i := range nodes {
		nodes[i] = cluster.NodeReport{Headroom: rng.Float64(), Floor: capFloor, Max: capMax, Healthy: true}
	}
	var caps []units.Watts
	rep.set("cluster.partition_ns", nsPer(probeIters, func() {
		caps = cluster.Partition(units.Watts(wattsPerShard*n), nodes, caps)
	}))
	rep.op(float64(cluster.Sum(caps)) <= float64(wattsPerShard*n)+capTol, "partition probe: caps over budget")

	endpoints := make([]cluster.ShardEndpoint, cfg.churnBase+cfg.churnSpares)
	for i := range endpoints {
		endpoints[i] = cluster.ShardEndpoint{ID: i, Network: "unix", Addr: fmt.Sprintf("%d.sock", i)}
	}
	m, err := cluster.NewMembership(endpoints, func() time.Duration { return 0 })
	rep.op(err == nil, "membership probe: %v", err)
	if err != nil {
		rep.set("cluster.memwire.frame_bytes", 0)
		return
	}
	rec := m.Record()
	frame, err := cluster.AppendMembership(nil, &rec)
	rep.op(err == nil, "membership frame probe: %v", err)
	rep.set("cluster.memwire.frame_bytes", float64(len(frame)))
}

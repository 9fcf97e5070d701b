package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// The cluster-steady scenario is the read-mostly use of the cluster
// plane: one aggregator polls N shard streams, rolls them up and
// re-partitions a binding budget. Most rounds change nothing; every so
// often the fleet's memory-concurrency skew flips and the caps have to
// land on the other side of the equal share.

const (
	wattsPerShard = 60 // budget per shard: binding (below Max) and above the floor
	capFloor      = units.Watts(10)
	capMax        = units.Watts(200)
	// capTol judges Σcaps against the budget. The partitioner stops
	// water-filling below a milliwatt of residue, so an exhausted budget
	// sums to within that of the global figure.
	capTol = 1e-2
)

type steadyFixture struct {
	rep    *report
	tr     *tracer
	dir    string
	shards []*shard
	agg    *cluster.Aggregator
	reg    *telemetry.Registry
	cancel context.CancelFunc
	done   chan error
	budget float64

	rng      *rand.Rand
	memBound []bool     // which shards currently sit at the bandwidth knee
	conc     [2]float64 // memory concurrency of a compute-bound / memory-bound shard
	demand   []float64

	caps     []float64 // last cap the aggregator pushed to each shard
	pushes   int
	round    int64
	pollSpan int
}

func hostClock() func() time.Duration {
	t0 := time.Now()
	return func() time.Duration { return time.Since(t0) }
}

// setupSteady builds the fleet and drives it to its first converged
// partition.
func setupSteady(cfg config, rep *report) (*steadyFixture, error) {
	n := cfg.steadyShards
	f := &steadyFixture{
		rep:      rep,
		reg:      telemetry.NewRegistry(),
		budget:   float64(wattsPerShard * n),
		rng:      rand.New(rand.NewSource(cfg.seed ^ 0x5eed57ead1)),
		memBound: make([]bool, n),
		demand:   make([]float64, n),
		caps:     make([]float64, n),
		pollSpan: -1,
	}
	var err error
	if f.dir, err = newSockDir(cfg.outDir); err != nil {
		return nil, err
	}
	clock := hostClock()
	dlv := newDelivery()
	endpoints := make([]cluster.ShardEndpoint, n)
	for i := 0; i < n; i++ {
		s := &shard{id: i, addr: filepath.Join(f.dir, fmt.Sprintf("%d.sock", i)), clock: clock, reg: f.reg, dlv: dlv}
		if err := s.start(); err != nil {
			f.close()
			return nil, err
		}
		f.shards = append(f.shards, s)
		endpoints[i] = cluster.ShardEndpoint{ID: i, Network: "unix", Addr: s.addr}
	}
	// The seed picks which half of the fleet starts memory-bound, how
	// close to the knee it sits, and each shard's power demand.
	for _, i := range f.rng.Perm(n)[:n/2] {
		f.memBound[i] = true
	}
	f.conc = [2]float64{2 + 6*f.rng.Float64(), 22 + 5*f.rng.Float64()}
	for i := range f.demand {
		f.demand[i] = 90 + 60*f.rng.Float64()
	}

	f.agg, err = cluster.NewAggregator(cluster.AggregatorConfig{
		Shards: endpoints,
		Global: units.Watts(f.budget),
		Floor:  capFloor,
		Max:    capMax,
		Period: time.Hour, // Run's ticker never fires: the bench drives Poll
		Clock:  clock,
		SetCap: func(id int, w units.Watts) error {
			h := f.tr.begin("cluster.setcap", f.pollSpan, f.round)
			f.caps[id] = float64(w)
			f.pushes++
			f.tr.end(h)
			return nil
		},
		Tune:      tuneClient(f.shards),
		Telemetry: f.reg,
	})
	if err != nil {
		f.close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel, f.done = cancel, make(chan error, 1)
	go func() { f.done <- f.agg.Run(ctx) }()
	if err := awaitSubscribers(f.shards, 1); err != nil {
		f.close()
		return nil, err
	}
	for !f.landed() {
		if f.round > 100 {
			f.close()
			return nil, errors.New("cluster-steady: fleet did not converge on its first partition")
		}
		if _, err := f.step(); err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

func (f *steadyFixture) close() {
	if f.cancel != nil {
		f.cancel()
		<-f.done
	}
	for _, s := range f.shards {
		_ = s.stop() // teardown: the run's results are already in
	}
	os.RemoveAll(f.dir)
}

// step is one driver round: every shard publishes a sample, the bench
// waits for the aggregator's streams to apply it, then the aggregator
// polls. It returns the Poll's host time.
func (f *steadyFixture) step() (time.Duration, error) {
	if err := f.feedAll(); err != nil {
		f.rep.op(false, "cluster-steady: %v", err)
		return 0, err
	}
	f.pollSpan = f.tr.begin("cluster.poll", -1, f.round)
	t0 := time.Now()
	f.agg.Poll()
	d := time.Since(t0)
	f.tr.end(f.pollSpan)
	f.pollSpan = -1

	sum := 0.0
	for _, c := range f.caps {
		sum += c
	}
	f.rep.op(sum <= f.budget+capTol, "cluster-steady: round %d: caps sum %.3f W over the %.0f W budget", f.round, sum, f.budget)
	return d, nil
}

// feedAll has every shard publish one sample — drawing min(demand,
// cap) with a little sampling ripple — and waits until the aggregator's
// streams have applied it.
func (f *steadyFixture) feedAll() error {
	f.round++
	for i, s := range f.shards {
		conc := f.conc[0]
		if f.memBound[i] {
			conc = f.conc[1]
		}
		power := f.demand[i]
		if c := f.caps[i]; c > 0 && c < power {
			power = c
		}
		s.feed(power+3*(f.rng.Float64()-0.5), conc)
	}
	return awaitDelivery(f.shards)
}

// landed reports whether the partition matches the current skew: the
// whole budget assigned, memory-bound shards below the equal share and
// compute-bound shards above it.
func (f *steadyFixture) landed() bool {
	equal := f.budget / float64(len(f.caps))
	sum := 0.0
	for i, c := range f.caps {
		sum += c
		if f.memBound[i] == (c >= equal) {
			return false
		}
	}
	return math.Abs(sum-f.budget) <= capTol
}

type steadyResult struct {
	pollUS      []float64 // steady rounds only
	relandUS    []float64
	relandPolls []float64
}

// run alternates steady stretches with skew flips until the budget is
// spent, finishing the cycle in progress.
func (f *steadyFixture) run(cfg config, budget time.Duration, tr *tracer) (steadyResult, error) {
	f.tr = tr
	defer func() { f.tr = nil }()
	var res steadyResult
	start := time.Now()
	for cycle := 0; cycle == 0 || time.Since(start) < budget; cycle++ {
		for i := 0; i < cfg.steadyRounds; i++ {
			d, err := f.step()
			if err != nil {
				return res, err
			}
			res.pollUS = append(res.pollUS, us(d))
		}
		for i := range f.memBound {
			f.memBound[i] = !f.memBound[i]
		}
		h := tr.begin("cluster.reland", -1, f.round+1)
		t0 := time.Now()
		polls := 0
		for !f.landed() {
			if polls++; polls > 100 {
				f.rep.op(false, "cluster-steady: caps did not land within %d polls of a skew flip", polls)
				return res, errors.New("cluster-steady: reland did not converge")
			}
			if _, err := f.step(); err != nil {
				return res, err
			}
		}
		res.relandUS = append(res.relandUS, us(time.Since(t0)))
		res.relandPolls = append(res.relandPolls, float64(polls))
		tr.end(h)
		f.rep.ops(1)
	}
	return res, nil
}

// window files this window's medians under the end-to-end names.
// A poll over cached snapshots is user-mode work around the scheduler;
// a reland is dominated by pushing frames through sockets.
func (r steadyResult) window(w windows, sc scale) {
	w.add("steady_poll_p50_us", median(r.pollUS)*sc.sched)
	w.add("reland_p50_us", median(r.relandUS)*sc.sys)
}

func (r *steadyResult) merge(o steadyResult) {
	r.pollUS = append(r.pollUS, o.pollUS...)
	r.relandUS = append(r.relandUS, o.relandUS...)
	r.relandPolls = append(r.relandPolls, o.relandPolls...)
}

// emitPerLayer reports the traced run. Poll self time is the poll span
// minus the SetCap callbacks the bench's own seam recorded inside it.
func (f *steadyFixture) emitPerLayer(r steadyResult, rep *report, tr *tracer) {
	l := summarize(tr.durations("cluster.poll"))
	rep.setLatency("", "cluster.poll_us_p99", l)
	rep.set("cluster.poll_self_us_p50", median(tr.selfTimes("cluster.poll")))
	rep.set("cluster.repartitions", counterValue(f.reg, "cluster_repartitions_total"))
	rep.set("cluster.cap_pushes", float64(f.pushes))
	rep.set("cluster.reland_polls_p50", median(r.relandPolls))
	rep.set("cluster.conservation_violations", counterValue(f.reg, "cluster_conservation_violations_total"))
}

// mallocsPerPoll counts heap allocations inside Poll alone: the memory
// statistics are read right around each call, while every other
// goroutine of the fixture is parked on its socket.
func (f *steadyFixture) mallocsPerPoll(polls int) (float64, error) {
	var before, after runtime.MemStats
	var total uint64
	for i := 0; i < polls; i++ {
		if err := f.feedAll(); err != nil {
			return 0, err
		}
		runtime.ReadMemStats(&before)
		f.agg.Poll()
		runtime.ReadMemStats(&after)
		total += after.Mallocs - before.Mallocs
	}
	return float64(total) / float64(polls), nil
}

// checkInvariants is the scenario's end-of-run gate.
func (f *steadyFixture) checkInvariants() {
	v := counterValue(f.reg, "cluster_conservation_violations_total")
	f.rep.op(v == 0, "cluster-steady: aggregator recorded %.0f conservation violations", v)
	st := f.agg.Status()
	f.rep.op(st.Healthy == len(f.shards), "cluster-steady: %d of %d shards healthy at the end", st.Healthy, len(f.shards))
}

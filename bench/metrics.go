package main

import (
	"fmt"
	"math"
	"sync"
)

// metricDef names one reported number. The lists below are the
// benchmark's contract: BENCHMARK.json repeats them, and bench_test.go
// checks the two agree and that a run emits each exactly once.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd is what a user of the system sees, reported by the untraced
// run. All are lower-is-better.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"regen_wall_s", "s"},
	{"regen_cpu_s", "s"},
	{"table1_time_err_pct", "pct"},
	{"table1_power_err_pct", "pct"},
	{"dyn_saving_gap_pp", "pp"},
	{"sub_obs_p50_us", "us"},
	{"poll_obs_p50_us", "us"},
	{"cap_write_p50_us", "us"},
	{"steady_poll_p50_us", "us"},
	{"reland_p50_us", "us"},
	{"churn_poll_p50_us", "us"},
	{"member_cycle_polls", "count"},
	{"handoff_model_ms", "ms"},
}

// perLayer is what the traced run reports, grouped by the module whose
// cost or work it measures.
var perLayer = []metricDef{
	{"experiments.cells", "count"},
	{"experiments.table1_host_s", "s"},
	{"experiments.fig3_host_s", "s"},
	{"experiments.throttle_host_s", "s"},
	{"experiments.overhead_host_s", "s"},
	{"experiments.sim_s_per_host_s", "ratio"},
	{"experiments.pool_util", "ratio"},

	{"workloads.fibonacci.host_ms_per_sim_s", "ms/s"},
	{"workloads.nqueens.host_ms_per_sim_s", "ms/s"},
	{"workloads.lulesh.host_ms_per_sim_s", "ms/s"},
	{"workloads.dijkstra.host_ms_per_sim_s", "ms/s"},
	{"workloads.reduction.host_ms_per_sim_s", "ms/s"},
	{"workloads.strassen.host_ms_per_sim_s", "ms/s"},
	{"machine.steps", "count"},
	{"machine.host_ns_per_step", "ns"},
	{"machine.sim_us_per_step", "us"},
	{"machine.charge_ns", "ns"},

	{"qthreads.tasks", "count"},
	{"qthreads.steals", "count"},
	{"qthreads.steal_miss_ratio", "ratio"},
	{"qthreads.host_ns_per_task", "ns"},
	{"qthreads.throttle_park_ns", "ns"},
	{"rcr.sampler.ticks", "count"},
	{"rcr.sampler.tick_ns_mean", "ns"},
	{"rcr.blackboard.writes", "count"},
	{"rcr.blackboard.reads", "count"},
	{"rapl.read_ns", "ns"},
	{"maestro.polls", "count"},
	{"maestro.transitions", "count"},
	{"maestro.throttled_frac", "ratio"},

	{"rcr.blackboard.set_ns", "ns"},
	{"rcr.pubsub.tick_us_p50", "us"},
	{"rcr.pubsub.bytes_per_tick", "bytes"},
	{"rcr.pubsub.full_frames", "count"},
	{"rcr.pubsub.dropped_frames", "count"},
	{"rcr.sub.next_us_p50", "us"},
	{"rcr.sub.next_us_p99", "us"},
	{"rcr.ipc.get_us_p50", "us"},
	{"rcr.ipc.get_us_p99", "us"},
	{"rcr.ipc.get_bytes", "bytes"},
	{"rcr.ipc.requests", "count"},
	{"rcr.ipc.errors", "count"},
	{"rcr.encoding.append_snapshot_ns", "ns"},
	{"rcr.encoding.decode_snapshot_ns", "ns"},
	{"resilience.client.query_us_p50", "us"},
	{"resilience.client.retries", "count"},
	{"resilience.client.cache_served", "count"},
	{"rcr.fence.cap_us_p50", "us"},
	{"rcr.fence.cap_us_p99", "us"},
	{"rcr.fence.offer_ns", "ns"},
	{"rcr.fence.rejects", "count"},
	{"rcr.delta.collect_encode_ns", "ns"},
	{"rcr.delta.decode_apply_ns", "ns"},
	{"monitor.mallocs_per_sub_obs", "count"},
	{"monitor.mallocs_per_get", "count"},
	{"monitor.mallocs_per_cap", "count"},
	{"monitor.sub_obs_per_s", "1/s"},
	{"monitor.get_per_s", "1/s"},
	{"monitor.cap_per_s", "1/s"},
	{"monitor.cpu_us_per_op", "us"},

	{"cluster.poll_us_p99", "us"},
	{"cluster.poll_self_us_p50", "us"},
	{"cluster.mallocs_per_poll", "count"},
	{"cluster.partition_ns", "ns"},
	{"cluster.repartitions", "count"},
	{"cluster.cap_pushes", "count"},
	{"cluster.reland_polls_p50", "count"},
	{"cluster.conservation_violations", "count"},
	{"cluster.ha.mem_write_us_p50", "us"},
	{"cluster.ha.mem_write_us_p99", "us"},
	{"cluster.ha.writes_per_poll", "count"},
	{"cluster.ha.elections", "count"},
	{"cluster.ha.demotions", "count"},
	{"cluster.ha.fence_rejects", "count"},
	{"cluster.member.grow_polls", "count"},
	{"cluster.member.drain_polls", "count"},
	{"cluster.member.shrink_polls", "count"},
	{"cluster.memwire.frame_bytes", "bytes"},
	{"cluster.churn_cycle_ms_p50", "ms"},

	{"bench.trace_overhead_pct", "pct"},
	{"bench.peak_rss_mb", "mb"},
	{"bench.gomaxprocs", "count"},
	{"bench.host_sys_ns", "ns"},
	{"bench.host_sched_ns", "ns"},
}

// maxLoggedFailures bounds how many failure messages a run prints; the
// count itself is never capped.
const maxLoggedFailures = 20

// report collects one run's numbers and its operation tally. Scenarios
// run one after another on the driver goroutine, but the callbacks the
// program invokes (cap applies, fenced writes) may report from its
// goroutines, hence the lock.
type report struct {
	mu        sync.Mutex
	values    map[string]float64
	notes     map[string]string
	attempted int
	failed    int
}

func newReport() *report {
	return &report{values: make(map[string]float64), notes: make(map[string]string)}
}

// set records a metric; a second set of the same name or a non-finite
// value is a bench bug and counts as a failed operation.
func (r *report) set(name string, v float64) {
	r.mu.Lock()
	_, dup := r.values[name]
	r.values[name] = v
	r.mu.Unlock()
	if dup {
		r.op(false, "metric %s set twice", name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.op(false, "metric %s is not finite", name)
	}
}

// setLatency records a median and a p99 (either name may be empty) and
// keeps the rule's own summary, with the sample count, for the printed
// line. With under a thousand samples the p99 metric falls back to the
// highest percentile that still has ten samples beyond it.
func (r *report) setLatency(p50Name, p99Name string, l latency) {
	if p50Name != "" {
		r.set(p50Name, l.P50)
		r.note(p50Name, l.String())
	}
	if p99Name != "" {
		v, q := l.tailUpTo(0.99)
		r.set(p99Name, v)
		r.note(p99Name, fmt.Sprintf("read at p%g; %s", q*100, l.String()))
	}
}

func (r *report) note(name, text string) {
	r.mu.Lock()
	r.notes[name] = text
	r.mu.Unlock()
}

// op tallies one operation of the program; ok=false is a refused,
// rejected, failed or wrong result.
func (r *report) op(ok bool, format string, args ...any) {
	r.mu.Lock()
	r.attempted++
	if !ok {
		r.failed++
	}
	logIt := !ok && r.failed <= maxLoggedFailures
	r.mu.Unlock()
	if logIt {
		fmt.Printf("FAIL: "+format+"\n", args...)
	}
}

// ops tallies n successful operations at once (the hot loops count
// locally and report in bulk).
func (r *report) ops(n int) {
	r.mu.Lock()
	r.attempted += n
	r.mu.Unlock()
}

package qthreads

import (
	"fmt"

	"repro/internal/telemetry"
)

// qtMetrics is the runtime's instrument set, pre-registered at New so
// workers record through atomics only. Scheduler counters count across
// all workers; the park-time counters measure the paper's throttling
// mechanism directly — virtual nanoseconds workers spent in the
// 1/32-duty throttled spin loop, node-wide and per shepherd — and the
// throttled gauge says whether the gate is shut.
type qtMetrics struct {
	tasks          *telemetry.Counter
	localPops      *telemetry.Counter
	steals         *telemetry.Counter
	stealMisses    *telemetry.Counter
	throttleStops  *telemetry.Counter
	throttleParkNS *telemetry.Counter
	throttled      *telemetry.Gauge
	shepherdParkNS []*telemetry.Counter // indexed by shepherd id
}

func newQTMetrics(reg *telemetry.Registry, shepherds int) *qtMetrics {
	m := &qtMetrics{
		tasks:          reg.Counter("qthreads_tasks_total"),
		localPops:      reg.Counter("qthreads_local_pops_total"),
		steals:         reg.Counter("qthreads_steals_total"),
		stealMisses:    reg.Counter("qthreads_steal_misses_total"),
		throttleStops:  reg.Counter("qthreads_throttle_stops_total"),
		throttleParkNS: reg.Counter("qthreads_throttle_park_ns_total"),
		throttled:      reg.Gauge("qthreads_throttled"),
		shepherdParkNS: make([]*telemetry.Counter, shepherds),
	}
	for i := range m.shepherdParkNS {
		m.shepherdParkNS[i] = reg.Counter(fmt.Sprintf("qthreads_shepherd%d_park_ns_total", i))
	}
	return m
}

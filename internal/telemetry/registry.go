// Package telemetry is the observability layer of the throttle pipeline:
// a metrics registry (counters, gauges, fixed-bucket histograms) whose
// record path performs no allocations and takes no locks — only atomic
// operations on pre-registered instruments — plus a bounded ring-buffer
// decision journal (journal.go) recording every MAESTRO classification
// with its inputs and outcome.
//
// The design follows the repo's zero-allocation engine work: all memory
// is allocated at registration time; Add / Set / Observe are single
// atomic operations (a short CAS loop for float sums) so samplers,
// daemons and scheduler workers can publish from their hot paths without
// perturbing the measurements they take. Related work puts a number on
// why this matters: energy monitoring itself carries measurable overhead
// that must stay well under the effects being measured (the paper's
// daemon bar is <= 0.6%).
//
// Every instrument and the registry itself are nil-safe: a nil *Registry
// hands out nil instruments, and recording on a nil instrument is a
// no-op. Instrumented code therefore needs no "telemetry enabled?"
// branches of its own.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 metric.
type Counter struct {
	name string
	v    atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter. Nil-safe no-op.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Name returns the registered name ("" for nil).
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Gauge is a last-value float64 metric.
type Gauge struct {
	name string
	bits atomic.Uint64
}

// Set stores the value. Nil-safe no-op.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add atomically adds dv to the gauge.
func (g *Gauge) Add(dv float64) {
	if g == nil {
		return
	}
	addFloatBits(&g.bits, dv)
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Name returns the registered name ("" for nil).
func (g *Gauge) Name() string {
	if g == nil {
		return ""
	}
	return g.name
}

// Histogram is a fixed-boundary cumulative histogram. Boundaries are
// upper bounds (value <= bound lands in that bucket); one implicit +Inf
// bucket catches the rest. The bucket array is fixed at registration, so
// Observe allocates nothing.
type Histogram struct {
	name    string
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1; last is +Inf
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records one value. Nil-safe no-op.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket counts are small (<= ~16) and the branch
	// predictor does well on skewed latency distributions; a binary
	// search saves nothing at this size.
	idx := len(h.bounds)
	for i, b := range h.bounds {
		if v <= b {
			idx = i
			break
		}
	}
	h.buckets[idx].Add(1)
	h.count.Add(1)
	addFloatBits(&h.sumBits, v)
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Name returns the registered name ("" for nil).
func (h *Histogram) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

// addFloatBits atomically adds dv to a float64 stored as bits.
func addFloatBits(bits *atomic.Uint64, dv float64) {
	for {
		old := bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + dv)
		if bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Registry holds named instruments. Registration (Counter / Gauge /
// Histogram) takes a mutex and may allocate; the returned instruments
// are lock-free thereafter. A nil *Registry is valid and hands out nil
// instruments, turning all recording into no-ops.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the counter with this name, registering it on first
// use. Registering a name already held by another instrument kind
// panics: metric names are a schema, and a kind clash is a programming
// error best caught at startup.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.checkFreeLocked(name, "counter")
	c := &Counter{name: name}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge with this name, registering it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.checkFreeLocked(name, "gauge")
	g := &Gauge{name: name}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram with this name, registering it with
// the given ascending upper bounds on first use. Later calls ignore
// bounds and return the existing instrument.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h
	}
	r.checkFreeLocked(name, "histogram")
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q bounds not ascending: %v", name, bounds))
		}
	}
	h := &Histogram{
		name:    name,
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}
	r.histograms[name] = h
	return h
}

func (r *Registry) checkFreeLocked(name, kind string) {
	if _, ok := r.counters[name]; ok {
		panic(fmt.Sprintf("telemetry: %q already registered as counter, requested as %s", name, kind))
	}
	if _, ok := r.gauges[name]; ok {
		panic(fmt.Sprintf("telemetry: %q already registered as gauge, requested as %s", name, kind))
	}
	if _, ok := r.histograms[name]; ok {
		panic(fmt.Sprintf("telemetry: %q already registered as histogram, requested as %s", name, kind))
	}
}

// Len reports the number of registered instruments (0 for nil).
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.counters) + len(r.gauges) + len(r.histograms)
}

// Metric is one instrument's state in a snapshot.
type Metric struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // "counter" | "gauge" | "histogram"
	// Value holds the count for counters, the value for gauges, and the
	// sum of observations for histograms.
	Value   float64   `json:"value"`
	Count   uint64    `json:"count,omitempty"`   // histogram observations
	Bounds  []float64 `json:"bounds,omitempty"`  // histogram upper bounds
	Buckets []uint64  `json:"buckets,omitempty"` // len(Bounds)+1, last is +Inf
}

// Snapshot returns every instrument's current state, name-sorted. It is
// safe to call concurrently with recording; counts are read atomically
// per instrument (no cross-instrument consistency is implied).
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Metric, 0, len(r.counters)+len(r.gauges)+len(r.histograms))
	for name, c := range r.counters {
		out = append(out, Metric{Name: name, Kind: "counter", Value: float64(c.Value())})
	}
	for name, g := range r.gauges {
		out = append(out, Metric{Name: name, Kind: "gauge", Value: g.Value()})
	}
	for name, h := range r.histograms {
		m := Metric{
			Name:    name,
			Kind:    "histogram",
			Value:   h.Sum(),
			Count:   h.Count(),
			Bounds:  append([]float64(nil), h.bounds...),
			Buckets: make([]uint64, len(h.buckets)),
		}
		for i := range h.buckets {
			m.Buckets[i] = h.buckets[i].Load()
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WriteText renders the registry in a Prometheus-style text form:
//
//	name value
//	hist_bucket{le="0.001"} 4
//	hist_bucket{le="+Inf"} 9
//	hist_sum 0.0123
//	hist_count 9
func (r *Registry) WriteText(w io.Writer) error {
	for _, m := range r.Snapshot() {
		switch m.Kind {
		case "histogram":
			cum := uint64(0)
			for i, b := range m.Buckets {
				cum += b
				le := "+Inf"
				if i < len(m.Bounds) {
					le = strconv.FormatFloat(m.Bounds[i], 'g', -1, 64)
				}
				if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", m.Name, le, cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n",
				m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Name, m.Count); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w, "%s %s\n", m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64)); err != nil {
				return err
			}
		}
	}
	return nil
}

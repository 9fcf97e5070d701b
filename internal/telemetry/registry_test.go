package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if c.Name() != "reqs_total" {
		t.Errorf("counter name = %q", c.Name())
	}
	g := r.Gauge("engaged")
	g.Set(1)
	if g.Value() != 1 {
		t.Errorf("gauge = %g, want 1", g.Value())
	}
	g.Add(0.5)
	if g.Value() != 1.5 {
		t.Errorf("gauge after Add = %g, want 1.5", g.Value())
	}
	// Re-registration returns the same instrument.
	if r.Counter("reqs_total") != c {
		t.Error("re-registering a counter returned a new instrument")
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d, want 2", r.Len())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", 0.001, 0.01, 0.1)
	for _, v := range []float64{0.0005, 0.001, 0.005, 0.05, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 0.0005+0.001+0.005+0.05+5; got != want {
		t.Errorf("sum = %g, want %g", got, want)
	}
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Kind != "histogram" {
		t.Fatalf("snapshot = %+v", snap)
	}
	// value<=bound bucketing: 0.0005 and 0.001 land in bucket 0; 0.005 in
	// bucket 1; 0.05 in bucket 2; 5 in +Inf.
	want := []uint64{2, 1, 1, 1}
	for i, b := range snap[0].Buckets {
		if b != want[i] {
			t.Errorf("bucket %d = %d, want %d (all: %v)", i, b, want[i], snap[0].Buckets)
		}
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", 1)
	c.Inc()
	c.Add(3)
	g.Set(7)
	g.Add(1)
	h.Observe(2)
	if c != nil || g != nil || h != nil {
		t.Error("nil registry handed out non-nil instruments")
	}
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil instruments reported non-zero values")
	}
	if c.Name() != "" || r.Len() != 0 || r.Snapshot() != nil {
		t.Error("nil registry not inert")
	}
	var j *Journal
	j.Record(Decision{})
	if j.Len() != 0 || j.Entries() != nil {
		t.Error("nil journal not inert")
	}
}

func TestKindClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m")
	defer func() {
		if recover() == nil {
			t.Error("registering a gauge over a counter name did not panic")
		}
	}()
	r.Gauge("m")
}

func TestSnapshotSortedAndJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total").Add(2)
	r.Gauge("a_gauge").Set(3.5)
	r.Histogram("c_hist", 1, 2).Observe(1.5)
	snap := r.Snapshot()
	if len(snap) != 3 || snap[0].Name != "a_gauge" || snap[1].Name != "b_total" || snap[2].Name != "c_hist" {
		t.Fatalf("snapshot order wrong: %+v", snap)
	}
	buf, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back []Metric
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 || back[1].Value != 2 {
		t.Errorf("JSON round trip = %+v", back)
	}
}

func TestWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("ipc_requests_total").Add(12)
	r.Histogram("tick_seconds", 0.001, 0.01).Observe(0.005)
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"ipc_requests_total 12\n",
		`tick_seconds_bucket{le="0.001"} 0`,
		`tick_seconds_bucket{le="0.01"} 1`,
		`tick_seconds_bucket{le="+Inf"} 1`,
		"tick_seconds_count 1\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("WriteText output missing %q:\n%s", want, text)
		}
	}
}

// TestMetricRecordAllocs is the zero-allocation gate for the record
// path: counters, gauges and histograms must not allocate once
// registered — the same bar the engine's step path holds
// (TestEngineStepAllocs).
func TestMetricRecordAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1)
	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(3)
		g.Set(4.2)
		g.Add(0.1)
		h.Observe(0.002)
		h.Observe(42)
	})
	if allocs != 0 {
		t.Errorf("metric record path allocates: %.1f allocs per run, want 0", allocs)
	}
}

// TestRegistryConcurrent races many writers against snapshot readers;
// run under -race in CI's telemetry job.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("writes_total")
	g := r.Gauge("level")
	h := r.Histogram("lat", 1, 10, 100)
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		writers.Add(1)
		go func(i int) {
			defer writers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.Inc()
					g.Set(float64(i))
					h.Observe(float64(i * 7 % 120))
				}
			}
		}(i)
	}
	for i := 0; i < 3; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for j := 0; j < 200; j++ {
				_ = r.Snapshot()
				var buf bytes.Buffer
				_ = r.WriteText(&buf)
			}
		}()
	}
	// Concurrent registration of new instruments must also be safe.
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for j := 0; j < 100; j++ {
				r.Counter("extra_total").Inc()
			}
		}()
	}
	readers.Wait()
	close(stop)
	writers.Wait()
	if c.Value() == 0 {
		t.Error("writers recorded nothing")
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	c := NewRegistry().Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("h", 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 1e-5)
	}
}

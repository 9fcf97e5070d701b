package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestQuantile(t *testing.T) {
	asc := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.125, 1.5}} {
		if got := quantile(asc, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5 (input must not need sorting)", got)
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it.
func TestSummarizeTailRule(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		return xs
	}
	for _, c := range []struct {
		n     int
		tailQ float64
	}{{50, 0}, {99, 0}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}} {
		l := summarize(ramp(c.n))
		if l.TailQ != c.tailQ {
			t.Errorf("n=%d: tail read at %v, want %v", c.n, l.TailQ, c.tailQ)
		}
		if c.tailQ == 0 && l.Tail != l.P50 {
			t.Errorf("n=%d: no tail qualifies, yet Tail %v differs from P50 %v", c.n, l.Tail, l.P50)
		}
	}
	// A metric named p99 never reads a higher percentile, however many
	// samples there are, and falls back below it when there are few.
	if _, q := summarize(ramp(100000)).tailUpTo(0.99); q != 0.99 {
		t.Errorf("tailUpTo(0.99) with 1e5 samples read p%v", q*100)
	}
	if _, q := summarize(ramp(500)).tailUpTo(0.99); q != 0.9 {
		t.Errorf("tailUpTo(0.99) with 500 samples read p%v, want the p90 fallback", q*100)
	}
}

// Host time is reported at the reference host speed: on a host whose
// indices read half as fast again, measured times shrink by a third.
func TestScaleBetween(t *testing.T) {
	quiet := reading{sys: sysRefNS, sched: schedRefNS}
	if sc := scaleBetween(quiet, quiet); sc.sys != 1 || sc.sched != 1 {
		t.Errorf("scale on the reference host = %+v, want 1", sc)
	}
	slow := reading{sys: 2 * sysRefNS, sched: 2 * schedRefNS}
	if sc := scaleBetween(quiet, slow); math.Abs(sc.sys-1/1.5) > 1e-12 || math.Abs(sc.sched-1/1.5) > 1e-12 {
		t.Errorf("scale between a quiet and a twice-slower reading = %+v, want 1/1.5", sc)
	}
}

// Self time is the span minus the union of its children, clipped to it.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "poll", Start: 1000, End: 101000, Parent: -1},
		{Name: "write", Start: 11000, End: 31000, Parent: 0},
		{Name: "write", Start: 21000, End: 51000, Parent: 0},   // overlaps the first
		{Name: "write", Start: 91000, End: 121000, Parent: 0},  // runs past the parent
		{Name: "write", Start: 60000, End: 0, Parent: 0},       // never finished
		{Name: "poll", Start: 200000, End: 205000, Parent: -1}, // childless
		{Name: "other", Start: 0, End: 500000, Parent: -1},
	}
	got := selfTimes(spans, "poll")
	want := []float64{100 - 40 - 10, 5}
	if len(got) != len(want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("selfTimes[%d] = %v µs, want %v", i, got[i], want[i])
		}
	}
}

func TestTracerNilIsNoOp(t *testing.T) {
	var tr *tracer
	h := tr.begin("x", -1, 0)
	tr.end(h)
	if h != -1 || tr.durations("x") != nil || tr.selfTimes("x") != nil {
		t.Error("a nil tracer recorded something")
	}
}

// BENCHMARK.json at the root repeats the metric lists; the two must not
// drift apart.
func TestBenchmarkJSONMatchesMetricLists(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", doc.Paths)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads declared, the bench has %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloadNames[i])
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, the bench has %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		if m.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit {
			t.Errorf("end-to-end %d is %s [%s], want %s [%s]", i, m.Name, m.Unit, endToEnd[i].Name, endToEnd[i].Unit)
		}
		if m.Better != "lower" || m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: better %q bound %v", m.Name, m.Better, m.Bound)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, the bench has %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		if m.Name != perLayer[i].Name || m.Unit != perLayer[i].Unit {
			t.Errorf("per-layer %d is %s [%s], want %s [%s]", i, m.Name, m.Unit, perLayer[i].Name, perLayer[i].Unit)
		}
	}
}

// smokeConfig shrinks every fixture and slice so a whole run takes well
// under a second without the regeneration pass.
func smokeConfig(t *testing.T, workload string, trace bool) config {
	cfg := defaultConfig()
	cfg.workload, cfg.trace, cfg.seed = workload, trace, 7
	cfg.seconds = 0.3
	cfg.minSlice = 50 * time.Millisecond
	cfg.outDir = t.TempDir()
	cfg.steadyShards, cfg.steadyRounds = 4, 5
	cfg.churnBase, cfg.churnSpares, cfg.churnSteadyRounds, cfg.churnCountCycles = 3, 1, 3, 2
	cfg.regenPasses = [2]int{1, 1}
	cfg.window = 10 * time.Millisecond
	return cfg
}

func checkRun(t *testing.T, cfg config) {
	t.Helper()
	rep, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed != 0 || rep.attempted == 0 {
		t.Errorf("%d of %d operations failed", rep.failed, rep.attempted)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	seen := 0
	for _, d := range defs {
		v, ok := rep.values[d.Name]
		switch {
		case ok:
			seen++
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s = %v", d.Name, v)
			}
		case !cfg.skipRegen:
			t.Errorf("%s was not emitted", d.Name)
		}
	}
	// report.set counts a repeated name as a failed operation, so
	// seen == len(values) means each name was emitted exactly once and
	// none lies outside the declared list.
	if seen != len(rep.values) {
		t.Errorf("%d metrics emitted, %d of them declared", len(rep.values), seen)
	}
	if err := printResult(cfg, rep); err != nil {
		t.Error(err)
	}
}

// Every workload, untraced and traced, at reduced size. The
// regeneration pass cannot be shrunk (it is the paper's evaluation), so
// it is left to TestSmokeWithRegeneration.
func TestSmokeSocketScenarios(t *testing.T) {
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			cfg := smokeConfig(t, w, trace)
			cfg.skipRegen = true
			checkRun(t, cfg)
		}
	}
}

func TestSmokeWithRegeneration(t *testing.T) {
	if testing.Short() {
		t.Skip("a regeneration pass takes several seconds")
	}
	checkRun(t, smokeConfig(t, wlPaperEval, false))
	checkRun(t, smokeConfig(t, wlMonitorMix, true))
}

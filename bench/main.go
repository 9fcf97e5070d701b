// Command bench is the repository's benchmark: four closed-loop
// workloads over the paper pipeline and the cluster plane, every layer
// timed from outside through its exported functions and the counters the
// program already keeps. See README.md for what each number means.
//
//	bash bench/run.sh --workload monitor-mix --seed 1 --seconds 24 --trace 0
//
// The last line of standard output is the result as one JSON object.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// Workload names. Every run measures all four scenarios, because every
// run reports every metric; the named workload is the one that gets the
// bulk of the run's time, and with it the tightest medians.
const (
	wlPaperEval     = "paper-eval"
	wlMonitorMix    = "monitor-mix"
	wlClusterSteady = "cluster-steady"
	wlClusterChurn  = "cluster-churn"
)

var workloadNames = []string{wlPaperEval, wlMonitorMix, wlClusterSteady, wlClusterChurn}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string // trace files and socket directories; the smoke test points it elsewhere

	// Fixture sizes; the smoke test shrinks them.
	steadyShards      int
	steadyRounds      int // steady rounds between skew flips
	churnBase         int
	churnSpares       int
	churnSteadyRounds int
	churnCountCycles  int           // cycles the two modelled counts are taken over
	regenPasses       [2]int        // regeneration passes of a secondary / the primary workload
	window            time.Duration // one turn of a socket scenario
	minSlice          time.Duration // floor on a socket scenario's share of the run
	skipRegen         bool          // smoke test under -short only
}

func defaultConfig() config {
	return config{
		seconds:           26,
		outDir:            filepath.Join("bench", "out"),
		steadyShards:      16,
		steadyRounds:      50,
		churnBase:         8,
		churnSpares:       2,
		churnSteadyRounds: 20,
		churnCountCycles:  64,
		regenPasses:       [2]int{2, 3},
		window:            100 * time.Millisecond,
		// Keeps a secondary scenario's medians meaningful when the
		// regeneration passes would eat the whole budget.
		minSlice: 1500 * time.Millisecond,
	}
}

// passEstimate is what one regeneration pass is expected to take (6.5 s
// on the development sandbox's good days, 8.6 s on its bad ones); it only
// decides how much of --seconds the socket bursts get.
const passEstimate = 8 * time.Second

// maxTracedSocketTime keeps a traced run's spans within maxSpans: the
// monitor loop alone records over a hundred thousand a second.
const maxTracedSocketTime = 8 * time.Second

// primaryWeight is the primary scenario's share of the socket time
// against 1 for each of the others.
const primaryWeight = 4

func main() { os.Exit(realMain()) }

func realMain() int {
	if len(os.Args) == 3 && os.Args[1] == spinArg {
		return spinMain(os.Args[2])
	}
	cfg := defaultConfig()
	traceFlag := 0
	flag.StringVar(&cfg.workload, "workload", "all", "workload to run: "+fmt.Sprint(workloadNames)+" or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "target length of one run's measurement")
	flag.IntVar(&traceFlag, "trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	flag.Parse()
	cfg.trace = traceFlag != 0

	if cfg.workload == "all" {
		return runEach(cfg)
	}
	known := false
	for _, w := range workloadNames {
		known = known || w == cfg.workload
	}
	if !known || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q or non-positive -seconds\n", cfg.workload)
		return 2
	}
	sp, err := startSpinners()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	defer sp.stop()
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	if err := printResult(cfg, rep); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	if rep.failed > 0 {
		return 1
	}
	return 0
}

// runEach runs every workload in a process of its own, untraced then
// traced, so no workload inherits another's heap or goroutines.
func runEach(cfg config) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	code := 0
	for _, w := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			cmd := exec.Command(self, "-workload", w, "-seed", fmt.Sprint(cfg.seed),
				"-seconds", fmt.Sprint(cfg.seconds), "-trace", trace)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s (trace %s): %v\n", w, trace, err)
				code = 1
			}
		}
	}
	return code
}

// fixtures are the three socket scenarios' set-ups; the regeneration
// scenario needs none beyond a Lab value.
type fixtures struct {
	monitor *monitorFixture
	steady  *steadyFixture
	churn   *churnFixture
}

func (fx *fixtures) close() {
	if fx.monitor != nil {
		fx.monitor.close()
	}
	if fx.steady != nil {
		fx.steady.close()
	}
	if fx.churn != nil {
		fx.churn.close()
	}
}

// setupAll builds every fixture up to its first converged state.
func setupAll(cfg config, rep *report) (fx fixtures, err error) {
	defer func() {
		if err != nil {
			fx.close()
		}
	}()
	if fx.monitor, err = setupMonitor(cfg, rep); err != nil {
		return fx, fmt.Errorf("monitor-mix set-up: %w", err)
	}
	if fx.steady, err = setupSteady(cfg, rep); err != nil {
		return fx, fmt.Errorf("cluster-steady set-up: %w", err)
	}
	if fx.churn, err = setupChurn(cfg, rep); err != nil {
		return fx, fmt.Errorf("cluster-churn set-up: %w", err)
	}
	return fx, nil
}

// windows collects per-window medians, scaled to the reference host
// speed, by end-to-end metric name. The reported value is their median.
type windows map[string][]float64

func (w windows) add(name string, v float64) { w[name] = append(w[name], v) }

func (w windows) emit(rep *report, names ...string) {
	for _, name := range names {
		rep.set(name, median(w[name]))
		rep.note(name, fmt.Sprintf("median of %d window medians", len(w[name])))
	}
}

// turnOrder is one cycle of socket windows: the primary scenario takes
// primaryWeight turns for every turn of each other one.
func turnOrder(primary string) []string {
	var order []string
	for _, w := range []string{wlMonitorMix, wlClusterSteady, wlClusterChurn} {
		turns := 1
		if w == primary {
			turns = primaryWeight
		}
		for i := 0; i < turns; i++ {
			order = append(order, w)
		}
	}
	return order
}

// driver is one run in progress.
type driver struct {
	cfg config
	rep *report
	tr  *tracer // nil in the untraced run
	fx  fixtures

	hx    *hostIndex
	order []string
	turn  int
	index []reading // every host index reading of the run

	e2e     windows // untraced windows
	traced  windows // traced windows of the primary scenario, for the overhead figure
	setups  []float64
	monitor monitorResult // all samples of the windows that count: untraced, or traced in a traced run
	steady  steadyResult
	churn   churnResult
}

// window runs one scenario for one window. In a traced run the primary
// scenario alternates untraced and traced windows — the difference is
// the tracing overhead — and the others are always traced.
func (d *driver) window(w string) error {
	tr := d.tr
	if tr != nil && w == d.cfg.workload && d.turn%2 == 0 {
		tr = nil
	}
	into := d.e2e
	if tr != nil {
		into = d.traced
	}
	keep := tr != nil || d.tr == nil
	before, err := d.readIndex()
	if err != nil {
		return err
	}
	// Each scenario runs its window and hands back how to file it once
	// the closing index reading has fixed the window's scale.
	var file func(scale)
	switch w {
	case wlMonitorMix:
		res, err := d.fx.monitor.run(d.cfg.window, tr)
		if err != nil {
			return err
		}
		file = func(sc scale) {
			res.window(into, sc)
			if keep {
				d.monitor.merge(res)
			}
		}
	case wlClusterSteady:
		res, err := d.fx.steady.run(d.cfg, d.cfg.window, tr)
		if err != nil {
			return err
		}
		file = func(sc scale) {
			res.window(into, sc)
			if keep {
				d.steady.merge(res)
			}
		}
	case wlClusterChurn:
		res, err := d.fx.churn.run(d.cfg.window, tr)
		if err != nil {
			return err
		}
		file = func(sc scale) {
			res.window(into, sc)
			if keep {
				d.churn.merge(res)
			}
		}
	}
	after, err := d.readIndex()
	if err != nil {
		return err
	}
	file(scaleBetween(before, after))
	return nil
}

func (d *driver) readIndex() (reading, error) {
	r, err := d.hx.read()
	d.index = append(d.index, r)
	return r, err
}

// burst gives the socket scenarios their turns for the given time, and
// times one more set-up of a throwaway copy of the fixtures.
func (d *driver) burst(length time.Duration) error {
	before, err := d.readIndex()
	if err != nil {
		return err
	}
	t0 := time.Now()
	spare, err := setupAll(d.cfg, d.rep)
	if err != nil {
		return err
	}
	took := time.Since(t0).Seconds()
	spare.close()
	after, err := d.readIndex()
	if err != nil {
		return err
	}
	d.setups = append(d.setups, took*scaleBetween(before, after).sys)
	for start := time.Now(); time.Since(start) < length; d.turn++ {
		if err := d.window(d.order[d.turn%len(d.order)]); err != nil {
			return err
		}
	}
	return nil
}

// run performs one benchmark run and returns its report.
func run(cfg config) (*report, error) {
	rep := newReport()
	fmt.Printf("bench: workload %s, seed %d, %.0f s, trace %v, GOMAXPROCS %d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0))

	d := &driver{cfg: cfg, rep: rep, order: turnOrder(cfg.workload), e2e: windows{}, traced: windows{}}
	if cfg.trace {
		d.tr = newTracer()
	}
	var err error
	if d.hx, err = newHostIndex(); err != nil {
		return nil, err
	}
	defer d.hx.close()
	if d.fx, err = setupAll(cfg, rep); err != nil {
		return nil, err
	}
	defer d.fx.close()

	// The run is a sequence of regeneration Lab calls with a burst of
	// socket windows after each, so every scenario samples the whole
	// length of the run rather than one stretch of it. The bursts share
	// the part of --seconds the regeneration is not expected to need.
	primary := cfg.workload == wlPaperEval
	passes := cfg.regenPasses[0]
	if primary {
		passes = cfg.regenPasses[1]
	}
	if cfg.trace {
		// One traced pass; when regeneration is the primary, two traced
		// passes alternating with two untraced ones, so that the overhead
		// figure compares like with like.
		passes = 1
		if primary {
			passes = 4
		}
	}
	socketTime := time.Duration(cfg.seconds*float64(time.Second)) - time.Duration(passes)*passEstimate
	if cfg.trace && socketTime > maxTracedSocketTime {
		socketTime = maxTracedSocketTime
	}
	if floor := 3 * cfg.minSlice; socketTime < floor {
		socketTime = floor
	}
	var burstErr error
	between := func() {
		if burstErr == nil {
			burstErr = d.burst(socketTime / time.Duration(passes*numCalls))
		}
	}
	var overheadPct float64
	switch {
	case cfg.skipRegen:
		for i := 0; i < passes*numCalls; i++ {
			between()
		}
	case !cfg.trace:
		runRegen(cfg.seed, passes, d.hx, rep, between).emitEndToEnd(rep)
	default:
		lab := newLab(cfg.seed)
		var base, traced regenResult
		var ct *cellTelemetry
		for i := 0; i < passes; i++ {
			if primary && i%2 == 0 {
				lab.Telemetry = nil
				base.passes = append(base.passes, regenOnce(lab, d.hx, rep, nil, int64(i), between))
				continue
			}
			ct = newCellTelemetry()
			lab.Telemetry = ct.record
			traced.passes = append(traced.passes, regenOnce(lab, d.hx, rep, d.tr, int64(i), between))
		}
		traced.emitPerLayer(rep, ct)
		if primary {
			overheadPct = (traced.wall() - base.wall()) / base.wall() * 100
		}
		runEngineProbes(cfg.seed, rep, d.tr)
	}
	if burstErr != nil {
		return nil, burstErr
	}
	d.fx.steady.checkInvariants()
	d.fx.churn.checkInvariants()

	if !cfg.trace {
		rep.set("setup_s", median(d.setups))
		rep.note("setup_s", fmt.Sprintf("median of %d set-ups of all fixtures", len(d.setups)))
		d.e2e.emit(rep, "sub_obs_p50_us", "poll_obs_p50_us", "cap_write_p50_us",
			"steady_poll_p50_us", "reland_p50_us", "churn_poll_p50_us")
		// The counts are taken over a fixed number of cycles; a slow host
		// may not have got that far within its windows.
		for len(d.churn.handoffMS) < cfg.churnCountCycles {
			res, err := d.fx.churn.run(0, nil)
			if err != nil {
				return nil, err
			}
			d.churn.merge(res)
		}
		d.churn.emitCounts(rep, cfg.churnCountCycles)
		return rep, nil
	}

	if err := d.fx.monitor.emitPerLayer(d.monitor, rep, d.tr); err != nil {
		return nil, err
	}
	d.fx.monitor.runCodecProbes(rep)
	d.fx.steady.emitPerLayer(d.steady, rep, d.tr)
	m, err := d.fx.steady.mallocsPerPoll(100)
	if err != nil {
		return nil, err
	}
	rep.set("cluster.mallocs_per_poll", m)
	d.fx.churn.emitPerLayer(d.churn, rep, d.tr)
	runClusterProbes(cfg, rep)

	if first := firstMetric[cfg.workload]; !primary {
		overheadPct = (median(d.traced[first]) - median(d.e2e[first])) / median(d.e2e[first]) * 100
	}
	rep.set("bench.trace_overhead_pct", overheadPct)
	rep.note("bench.trace_overhead_pct", "traced vs untraced "+firstMetric[cfg.workload])
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	rep.set("bench.peak_rss_mb", float64(ru.Maxrss)/1024)
	rep.set("bench.gomaxprocs", float64(runtime.GOMAXPROCS(0)))
	var sys, sched []float64
	for _, r := range d.index {
		sys, sched = append(sys, r.sys), append(sched, r.sched)
	}
	rep.set("bench.host_sys_ns", median(sys))
	rep.set("bench.host_sched_ns", median(sched))
	rep.note("bench.host_sys_ns", fmt.Sprintf("median of %d readings; reference %d", len(sys), sysRefNS))
	rep.note("bench.host_sched_ns", fmt.Sprintf("median of %d readings; reference %d", len(sched), schedRefNS))

	path := filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")
	if err := d.tr.write(path, cfg.workload, cfg.seed); err != nil {
		return nil, err
	}
	fmt.Printf("bench: %d spans written to %s (%d dropped)\n", len(d.tr.spans), path, d.tr.dropped)
	return rep, nil
}

// firstMetric is each workload's own headline number, the one the
// tracing overhead is judged on.
var firstMetric = map[string]string{
	wlPaperEval:     "regen_wall_s",
	wlMonitorMix:    "sub_obs_p50_us",
	wlClusterSteady: "steady_poll_p50_us",
	wlClusterChurn:  "churn_poll_p50_us",
}

// printResult prints every metric by name with its unit, then the
// result object on the last line.
func printResult(cfg config, rep *report) error {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := rep.values[d.Name]
		if !ok {
			if cfg.skipRegen {
				continue
			}
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		metrics[d.Name] = value{v, d.Unit}
		fmt.Printf("%-40s %14.4f %-6s %s\n", d.Name, v, d.Unit, rep.notes[d.Name])
	}
	if len(rep.values) > len(metrics) {
		return errors.New("a metric outside the declared list was set")
	}
	fmt.Printf("bench: seed %d: %d operations attempted, %d failed\n", cfg.seed, rep.attempted, rep.failed)
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

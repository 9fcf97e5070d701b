// Package experiments regenerates every table and figure of the paper's
// evaluation: the compiler/optimization studies (Tables I–III), the
// thread-scaling and energy curves (Figures 1–4), the MAESTRO throttling
// case studies (Tables IV–VII), and the secondary observations (cold
// start, throttling overhead on well-scaling programs, duty-cycle
// savings). Results carry the paper's reference numbers alongside the
// measurements so reports can show paper-vs-measured directly.
package experiments

import (
	"fmt"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/maestro"
	"repro/internal/qthreads"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/internal/workloads"
	"repro/internal/workloads/suite"
)

// ThrottleMode selects the adaptive-runtime configuration of a run.
type ThrottleMode int

// Throttle modes.
const (
	// ThrottleOff runs with a fixed worker count and no daemon.
	ThrottleOff ThrottleMode = iota
	// ThrottleDynamic attaches the MAESTRO daemon (paper §IV).
	ThrottleDynamic
)

// RunSpec describes one measured benchmark execution.
type RunSpec struct {
	App     string
	Target  compiler.Target
	Workers int
	// Scale adjusts the input size relative to the Tables I–III runs
	// (Table V's dijkstra uses a ~3.6× larger input). Zero means 1.
	Scale float64
	// SpinOnlyIdle selects the Qthreads/MAESTRO idle policy (workers
	// spin instead of parking); the throttling experiments use it.
	SpinOnlyIdle bool
	Throttle     ThrottleMode
	// Maestro tunes the daemon when Throttle is ThrottleDynamic (zero
	// value selects the paper's defaults); the ablations use it to flip
	// the policy and mechanism.
	Maestro maestro.Config
	// PowerCap, when positive, attaches a power-capping controller
	// holding node power at or below the bound (instead of the Daemon).
	PowerCap units.Watts
}

// Measurement is one run's outcome.
type Measurement struct {
	App     string
	Target  compiler.Target
	Workers int
	Seconds float64
	Joules  float64
	Watts   float64
	// Daemon statistics (zero unless ThrottleDynamic).
	Daemon maestro.Stats
	// Cap statistics (zero unless PowerCap was set).
	Cap maestro.CapStats
}

// Lab runs specs on fresh, warm simulated machines.
type Lab struct {
	// Machine is the node configuration; zero value selects M620.
	Machine machine.Config
	// Repeats runs each spec N times and keeps the lowest execution
	// time, like the paper's best-of-10 protocol (§II). Zero means 1 —
	// the simulator has far less run-to-run noise than hardware.
	Repeats int
	// Seed feeds workload input generation.
	Seed int64
	// Parallel bounds how many experiment cells (independent simulated
	// runs) execute concurrently: each cell gets its own machine, so
	// tables, figures and ablations fan out without affecting results.
	// Zero means GOMAXPROCS; 1 disables parallelism and restores the
	// strictly serial execution (including fail-fast on the first cell
	// error) the Lab has always had.
	Parallel int
	// Telemetry, when non-nil, instruments every cell's stack (sampler,
	// blackboard, runtime, daemon/cap) and receives one RunTelemetry per
	// completed run. With Parallel > 1 the sink is called from multiple
	// goroutines; SidecarWriter is a ready-made concurrency-safe sink.
	Telemetry func(RunTelemetry)
}

// RunTelemetry is the observability record of one instrumented cell run:
// the final metrics snapshot of the run's private registry plus the
// MAESTRO decision journal (empty unless the run used ThrottleDynamic).
type RunTelemetry struct {
	App     string               `json:"app"`
	Workers int                  `json:"workers"`
	Seed    int64                `json:"seed"`
	Metrics []telemetry.Metric   `json:"metrics"`
	Journal []telemetry.Decision `json:"journal,omitempty"`
}

// NewLab returns a Lab with defaults.
func NewLab() *Lab {
	return &Lab{Machine: machine.M620(), Repeats: 1, Seed: 42}
}

// Measure executes one spec and returns the best-of-Repeats measurement
// (the paper reports the lowest execution time of its ten runs, §II).
// Repeated runs jitter the input seed, standing in for the run-to-run
// heterogeneity the paper observes on hardware.
func (lab *Lab) Measure(spec RunSpec) (Measurement, error) {
	repeats := lab.Repeats
	if repeats < 1 {
		repeats = 1
	}
	best := Measurement{}
	for r := 0; r < repeats; r++ {
		m, err := lab.runOnceSeeded(spec, lab.Seed+int64(r), nil)
		if err != nil {
			return Measurement{}, err
		}
		if r == 0 || m.Seconds < best.Seconds {
			best = m
		}
	}
	return best, nil
}

// SeriesSummary summarizes a repeated measurement.
type SeriesSummary struct {
	Seconds stats.Summary
	Joules  stats.Summary
	Watts   stats.Summary
}

// MeasureSeries runs a spec n times with per-run seed jitter and returns
// every measurement plus distribution summaries — the full repeat-run
// protocol behind the paper's best-of-10 numbers.
func (lab *Lab) MeasureSeries(spec RunSpec, n int) ([]Measurement, SeriesSummary, error) {
	if n < 1 {
		n = 1
	}
	out := make([]Measurement, n)
	if err := lab.runCells(n, func(r int) error {
		m, err := lab.runOnceSeeded(spec, lab.Seed+int64(r), nil)
		if err != nil {
			return err
		}
		out[r] = m
		return nil
	}); err != nil {
		return nil, SeriesSummary{}, err
	}
	secs := make([]float64, 0, n)
	joules := make([]float64, 0, n)
	watts := make([]float64, 0, n)
	for _, m := range out {
		secs = append(secs, m.Seconds)
		joules = append(joules, m.Joules)
		watts = append(watts, m.Watts)
	}
	return out, SeriesSummary{
		Seconds: stats.Summarize(secs),
		Joules:  stats.Summarize(joules),
		Watts:   stats.Summarize(watts),
	}, nil
}

// runOnceSeeded runs the workload once with the given input seed on a
// fresh, warm full stack — core.New: machine, RAPL reader, RCR sampler,
// runtime, optional MAESTRO daemon or power cap — and tears it down. The
// stack is assembled with its clock parked and the run starts on that
// instant, so every ticker phase the daemon sees is the same from run to
// run and arm to arm. A non-nil tracer observes the runtime's scheduler
// events.
func (lab *Lab) runOnceSeeded(spec RunSpec, seed int64, tracer qthreads.Tracer) (Measurement, error) {
	if spec.Workers <= 0 {
		return Measurement{}, fmt.Errorf("experiments: %s: Workers must be positive", spec.App)
	}
	wl, err := suite.New(spec.App)
	if err != nil {
		return Measurement{}, err
	}
	// A zero lab.Machine is the M620 to Prepare and core.New alike.
	if err := wl.Prepare(workloads.Params{
		MachineConfig: lab.Machine,
		Target:        spec.Target,
		Scale:         spec.Scale,
		Seed:          seed,
	}); err != nil {
		return Measurement{}, err
	}

	// Each cell gets a private registry and journal so parallel cells
	// never share instruments; the sink receives them after the run.
	sys, err := core.New(core.Options{
		Machine:            lab.Machine,
		Workers:            spec.Workers,
		Qthreads:           qthreads.Config{SpinOnlyIdle: spec.SpinOnlyIdle, Tracer: tracer},
		AdaptiveThrottling: spec.Throttle == ThrottleDynamic,
		Maestro:            spec.Maestro,
		PowerCap:           spec.PowerCap,
		Warm:               true,
		Telemetry:          lab.Telemetry != nil,
	})
	if err != nil {
		return Measurement{}, err
	}
	defer sys.Close()
	rep, err := sys.RunWorkload(wl)
	if err != nil {
		return Measurement{}, err
	}
	meas := Measurement{
		App:     spec.App,
		Target:  spec.Target,
		Workers: spec.Workers,
		Seconds: rep.Elapsed.Seconds(),
		Joules:  float64(rep.Energy),
		Watts:   float64(rep.AvgPower),
	}
	meas.Daemon, _ = sys.Throttling()
	meas.Cap, _ = sys.Capping()
	if lab.Telemetry != nil {
		lab.Telemetry(RunTelemetry{
			App:     spec.App,
			Workers: spec.Workers,
			Seed:    seed,
			Metrics: sys.Telemetry().Snapshot(),
			Journal: sys.Journal().Entries(),
		})
	}
	return meas, nil
}

// FullThreads is the paper's maximum hardware thread count.
const FullThreads = 16

// ThrottledThreads matches the paper's fixed-12 comparison points.
const ThrottledThreads = 12

// sweepThreads are the per-figure thread counts.
var sweepThreads = []int{1, 2, 4, 8, 12, 16}

// warmupNote documents the measurement protocol; the paper only reports
// warm-system numbers (§II-C).
const warmupNote = "all runs start from a warm (68 °C) machine, matching the paper's protocol"

// EDP returns the energy-delay product in joule-seconds, the standard
// figure of merit for energy/performance trade-offs: throttling that
// saves energy without costing time lowers it; throttling that merely
// trades time for energy does not.
func (m Measurement) EDP() float64 { return m.Joules * m.Seconds }

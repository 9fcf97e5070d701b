package experiments

import (
	"fmt"

	"repro/internal/compiler"
)

// The throttling case studies (Tables IV–VII) run at -O3 under the
// Qthreads/MAESTRO runtime (spin-only idle) and compare three
// configurations: 16 workers with the dynamic daemon, 16 fixed, and 12
// fixed. Input scales align each application's fixed-16 run with the
// paper's MAESTRO baseline (the MAESTRO stack and inputs differ slightly
// from the Tables I–III builds; dijkstra in particular uses a ~3.6×
// larger input in Table V).

// ThrottleConfig labels the three measured configurations.
type ThrottleConfig string

// The three configurations of Tables IV–VII.
const (
	Dynamic16 ThrottleConfig = "16 Threads - Dynamic"
	Fixed16   ThrottleConfig = "16 Threads - Fixed"
	Fixed12   ThrottleConfig = "12 Threads - Fixed"
)

// ThrottleRow is one configuration's outcome next to the paper's.
type ThrottleRow struct {
	Config ThrottleConfig
	Meas   Measurement
	Paper  compiler.Entry
}

// ThrottleResult is one regenerated throttling table.
type ThrottleResult struct {
	Title string
	App   string
	Rows  []ThrottleRow
}

// paperThrottle transcribes Tables IV–VII: {dynamic, fixed16, fixed12}
// rows of (seconds, Joules, Watts).
var paperThrottle = map[string][3]compiler.Entry{
	compiler.AppLULESH:   {{Seconds: 48.4, Joules: 6860, Watts: 141.7}, {Seconds: 45.5, Joules: 7089, Watts: 155.9}, {Seconds: 48.2, Joules: 6341, Watts: 131.5}},
	compiler.AppDijkstra: {{Seconds: 16.04, Joules: 2262, Watts: 140.9}, {Seconds: 16.34, Joules: 2306, Watts: 141.0}, {Seconds: 15.83, Joules: 2236, Watts: 141.2}},
	compiler.AppHealth:   {{Seconds: 1.33, Joules: 173.0, Watts: 130.0}, {Seconds: 1.26, Joules: 176.3, Watts: 139.4}, {Seconds: 1.35, Joules: 166.9, Watts: 123.0}},
	compiler.AppStrassen: {{Seconds: 23.7, Joules: 3601, Watts: 151.7}, {Seconds: 24.1, Joules: 3716, Watts: 154.2}, {Seconds: 26.9, Joules: 3505, Watts: 130.3}},
}

// PaperThrottleEntry returns the paper's row for an app/config, with
// ok=false for apps outside Tables IV–VII.
func PaperThrottleEntry(app string, cfg ThrottleConfig) (compiler.Entry, bool) {
	rows, ok := paperThrottle[app]
	if !ok {
		return compiler.Entry{}, false
	}
	switch cfg {
	case Dynamic16:
		return rows[0], true
	case Fixed16:
		return rows[1], true
	case Fixed12:
		return rows[2], true
	default:
		return compiler.Entry{}, false
	}
}

// ThrottleApps lists the four programs the paper throttles, in table
// order (Tables IV–VII).
func ThrottleApps() []string {
	return []string{compiler.AppLULESH, compiler.AppDijkstra, compiler.AppHealth, compiler.AppStrassen}
}

// throttleScale aligns each app's MAESTRO input with its Tables I–III
// input: the Table V dijkstra run is ~3.6× larger; health's MAESTRO
// input is slightly smaller.
func throttleScale(app string) float64 {
	o3 := compiler.Target{Compiler: compiler.GCC, Opt: compiler.O3}
	base, ok := compiler.PaperEntry(app, o3)
	fixed16, ok2 := PaperThrottleEntry(app, Fixed16)
	if !ok || !ok2 || base.Seconds <= 0 {
		return 1
	}
	return fixed16.Seconds / base.Seconds
}

// throttleTableNumber maps apps to their paper table numbers.
var throttleTableNumber = map[string]string{
	compiler.AppLULESH:   "IV",
	compiler.AppDijkstra: "V",
	compiler.AppHealth:   "VI",
	compiler.AppStrassen: "VII",
}

// ThrottleTable regenerates the Tables IV–VII experiment for one of the
// four throttled applications.
func (lab *Lab) ThrottleTable(app string) (ThrottleResult, error) {
	if _, ok := paperThrottle[app]; !ok {
		return ThrottleResult{}, fmt.Errorf("experiments: %s is not one of the paper's throttling case studies", app)
	}
	target := compiler.Target{Compiler: compiler.GCC, Opt: compiler.O3}
	scale := throttleScale(app)
	res := ThrottleResult{
		Title: fmt.Sprintf("Table %s: %s under MAESTRO (-O3)", throttleTableNumber[app], app),
		App:   app,
	}
	configs := []struct {
		cfg      ThrottleConfig
		workers  int
		throttle ThrottleMode
	}{
		{Dynamic16, FullThreads, ThrottleDynamic},
		{Fixed16, FullThreads, ThrottleOff},
		{Fixed12, ThrottledThreads, ThrottleOff},
	}
	specs := make([]RunSpec, len(configs))
	for i, c := range configs {
		specs[i] = RunSpec{App: app, Target: target, Workers: c.workers, Scale: scale, SpinOnlyIdle: true, Throttle: c.throttle}
	}
	meas, err := lab.measureAll(specs)
	if err != nil {
		return ThrottleResult{}, err
	}
	for i, c := range configs {
		paper, _ := PaperThrottleEntry(app, c.cfg)
		res.Rows = append(res.Rows, ThrottleRow{Config: c.cfg, Meas: meas[i], Paper: paper})
	}
	return res, nil
}

// Row returns the result row for a configuration.
func (r ThrottleResult) Row(cfg ThrottleConfig) (ThrottleRow, bool) {
	for _, row := range r.Rows {
		if row.Config == cfg {
			return row, true
		}
	}
	return ThrottleRow{}, false
}

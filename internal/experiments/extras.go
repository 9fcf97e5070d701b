package experiments

import (
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/qthreads"
	"repro/internal/units"
	"repro/internal/workloads"
	"repro/internal/workloads/micro"
)

// ColdStartResult reproduces the paper's §II-C footnote 2 observation: of
// 100 runs started on a cold system, the first always used less energy
// and drew less power than later runs of the same length (their example:
// NAS BT.C, 3.2% less energy).
type ColdStartResult struct {
	App        string
	ColdJoules float64
	WarmJoules float64
	ColdWatts  float64
	WarmWatts  float64
	// SavingPct is the cold run's energy saving in percent.
	SavingPct float64
}

// ColdStart measures the same sustained run from a cold versus a warm
// machine, using the BT.C proxy the footnote itself measured.
func (lab *Lab) ColdStart() (ColdStartResult, error) {
	run := func(warm bool) (Measurement, error) {
		wl := micro.NewBT()
		if err := wl.Prepare(workloads.Params{MachineConfig: lab.Machine, Seed: lab.Seed}); err != nil {
			return Measurement{}, err
		}
		sys, err := core.New(core.Options{Machine: lab.Machine, Workers: FullThreads, Warm: warm})
		if err != nil {
			return Measurement{}, err
		}
		defer sys.Close()
		if !warm {
			m := sys.Machine()
			m.WarmAll(m.Config().Thermal.Ambient) // first run of the day
		}
		rep, err := sys.RunWorkload(wl)
		if err != nil {
			return Measurement{}, err
		}
		return Measurement{App: wl.Name(), Seconds: rep.Elapsed.Seconds(), Joules: float64(rep.Energy), Watts: float64(rep.AvgPower)}, nil
	}
	var arms [2]Measurement // cold, warm
	err := lab.runCells(len(arms), func(i int) (err error) {
		arms[i], err = run(i == 1)
		return err
	})
	if err != nil {
		return ColdStartResult{}, err
	}
	cold, warm := arms[0], arms[1]
	return ColdStartResult{
		App:        cold.App,
		ColdJoules: cold.Joules,
		WarmJoules: warm.Joules,
		ColdWatts:  cold.Watts,
		WarmWatts:  warm.Watts,
		SavingPct:  (warm.Joules - cold.Joules) / warm.Joules * 100,
	}, nil
}

// OverheadRow is one well-scaling application's throttling overhead.
type OverheadRow struct {
	App         string
	FixedSec    float64
	DynamicSec  float64
	OverheadPct float64
	Activations uint64
}

// WellScalingApps are programs the paper reports MAESTRO never throttles
// (§IV-B: "on the other applications, which already scale well, our
// throttling implementation never detected the need to throttle and
// resulted in only minor overheads (up to 0.6%)").
func WellScalingApps() []string {
	return []string{
		compiler.AppAlignmentFor, compiler.AppFibCutoff,
		compiler.AppNQueensCutoff, compiler.AppSortCutoff,
		compiler.AppSparseLUSingle,
	}
}

// ThrottleOverhead measures each well-scaling application with and
// without the MAESTRO daemon under the spin-only runtime.
func (lab *Lab) ThrottleOverhead() ([]OverheadRow, error) {
	target := compiler.Target{Compiler: compiler.GCC, Opt: compiler.O3}
	apps := WellScalingApps()
	var specs []RunSpec
	for _, app := range apps {
		fixed := RunSpec{App: app, Target: target, Workers: FullThreads, SpinOnlyIdle: true}
		dynamic := fixed
		dynamic.Throttle = ThrottleDynamic
		specs = append(specs, fixed, dynamic)
	}
	meas, err := lab.measureAll(specs)
	if err != nil {
		return nil, err
	}
	rows := make([]OverheadRow, len(apps))
	for i, app := range apps {
		fixed, dynamic := meas[2*i], meas[2*i+1]
		rows[i] = OverheadRow{
			App:         app,
			FixedSec:    fixed.Seconds,
			DynamicSec:  dynamic.Seconds,
			OverheadPct: (dynamic.Seconds - fixed.Seconds) / fixed.Seconds * 100,
			Activations: dynamic.Daemon.Activations,
		}
	}
	return rows, nil
}

// DutyCycleResult reproduces the paper's §IV observation that idling four
// threads via duty-cycle modulation saves over 12 W (their example:
// 134 W vs 147 W).
type DutyCycleResult struct {
	FullPower      units.Watts // 16 active cores
	ThrottledPower units.Watts // 12 active + 4 duty-cycle-1/32 spinners
	Saving         units.Watts
}

// DutyCycleSavings measures steady-state node power with 16 fully
// active cores versus 12 active plus 4 spinning at duty 1/32: the
// throttled arm turns on the runtime's concurrency throttle with two
// workers fewer per socket, and both arms run one 100 ms compute task
// per active core.
func (lab *Lab) DutyCycleSavings() (DutyCycleResult, error) {
	const idled = 4
	measure := func(throttled bool) (units.Watts, error) {
		sys, err := core.New(core.Options{Machine: lab.Machine, Warm: true, Qthreads: qthreads.Config{SpinOnlyIdle: true}})
		if err != nil {
			return 0, err
		}
		defer sys.Close()
		mcfg := sys.Machine().Config()
		active := mcfg.Cores()
		if throttled {
			perSocket := mcfg.CoresPerSocket - idled/mcfg.Sockets
			sys.Runtime().SetThrottle(true, perSocket)
			active = perSocket * mcfg.Sockets
		}
		rep, err := sys.Run("dutycycle", func(tc *qthreads.TC) {
			for i := 0; i < active; i++ {
				tc.Spawn(func(tc *qthreads.TC) { tc.Compute(float64(mcfg.BaseFreq) * 0.1) }) // 100 ms
			}
			tc.Sync()
		})
		if err != nil {
			return 0, err
		}
		return rep.AvgPower, nil
	}
	var arms [2]units.Watts // full, throttled
	err := lab.runCells(len(arms), func(i int) (err error) {
		arms[i], err = measure(i == 1)
		return err
	})
	if err != nil {
		return DutyCycleResult{}, err
	}
	return DutyCycleResult{
		FullPower:      arms[0],
		ThrottledPower: arms[1],
		Saving:         arms[0] - arms[1],
	}, nil
}

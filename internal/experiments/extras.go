package experiments

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/compiler"
	"repro/internal/machine"
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
		mcfg := lab.Machine
		if mcfg.Sockets == 0 {
			mcfg = machine.M620()
		}
		if err := wl.Prepare(workloads.Params{MachineConfig: mcfg, Seed: lab.Seed}); err != nil {
			return Measurement{}, err
		}
		m, err := machine.New(mcfg)
		if err != nil {
			return Measurement{}, err
		}
		defer m.Stop()
		if warm {
			m.WarmAll(workloads.WarmTemp)
		} else {
			m.WarmAll(mcfg.Thermal.Ambient) // first run of the day
		}
		rep, err := workloads.RunOnce(m, wl, FullThreads)
		if err != nil {
			return Measurement{}, err
		}
		return Measurement{App: wl.Name(), Seconds: rep.Elapsed.Seconds(), Joules: float64(rep.Energy), Watts: float64(rep.AvgPower)}, nil
	}
	var cold, warm Measurement
	err := lab.runCells(2, func(i int) error {
		m, err := run(i == 1)
		if err != nil {
			return err
		}
		if i == 0 {
			cold = m
		} else {
			warm = m
		}
		return nil
	})
	if err != nil {
		return ColdStartResult{}, err
	}
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
	rows := make([]OverheadRow, len(apps))
	for i, app := range apps {
		rows[i].App = app
	}
	// Fixed and dynamic runs of each app are independent cells; the
	// percentages are derived once both of a row's cells are in.
	err := lab.runCells(len(apps)*2, func(i int) error {
		app, dynamic := apps[i/2], i%2 == 1
		spec := RunSpec{App: app, Target: target, Workers: FullThreads, SpinOnlyIdle: true}
		if dynamic {
			spec.Throttle = ThrottleDynamic
		}
		meas, err := lab.Measure(spec)
		if err != nil {
			return err
		}
		row := &rows[i/2]
		if dynamic {
			row.DynamicSec = meas.Seconds
			row.Activations = meas.Daemon.Activations
		} else {
			row.FixedSec = meas.Seconds
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range rows {
		rows[i].OverheadPct = (rows[i].DynamicSec - rows[i].FixedSec) / rows[i].FixedSec * 100
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

// DutyCycleSavings measures steady-state node power directly on the
// machine, with 16 fully active cores versus 12 active plus 4 spinning
// at duty 1/32.
func (lab *Lab) DutyCycleSavings() (DutyCycleResult, error) {
	mcfg := lab.Machine
	if mcfg.Sockets == 0 {
		mcfg = machine.M620()
	}
	measure := func(throttled int) (units.Watts, error) {
		m, err := machine.New(mcfg)
		if err != nil {
			return 0, err
		}
		defer m.Stop()
		m.WarmAll(workloads.WarmTemp)
		start := m.Now()
		startE := m.TotalEnergy()
		var wg sync.WaitGroup
		cores := mcfg.Cores()
		stop := make(chan struct{})
		for id := 0; id < cores; id++ {
			ctx, err := m.Enroll(id)
			if err != nil {
				return 0, err
			}
			wg.Add(1)
			spin := id >= cores-throttled
			go func(ctx *machine.CoreCtx, spin bool) {
				defer wg.Done()
				defer func() { recover() }() // tolerate machine teardown
				defer ctx.Release()
				if spin {
					ctx.SetDutyLevel(1)
					ctx.SpinFor(func() bool {
						select {
						case <-stop:
							return true
						default:
							return false
						}
					}, 100*time.Millisecond)
					ctx.FullDuty()
					return
				}
				ctx.Compute(float64(mcfg.BaseFreq) * 0.1) // 100 ms active
			}(ctx, spin)
		}
		wg.Wait()
		close(stop)
		elapsed := m.Now() - start
		if elapsed <= 0 {
			return 0, fmt.Errorf("experiments: duty-cycle run advanced no time")
		}
		return units.PowerOver(m.TotalEnergy()-startE, elapsed), nil
	}
	var full, throttled units.Watts
	err := lab.runCells(2, func(i int) error {
		w, err := measure(i * 4)
		if err != nil {
			return err
		}
		if i == 0 {
			full = w
		} else {
			throttled = w
		}
		return nil
	})
	if err != nil {
		return DutyCycleResult{}, err
	}
	return DutyCycleResult{
		FullPower:      full,
		ThrottledPower: throttled,
		Saving:         full - throttled,
	}, nil
}

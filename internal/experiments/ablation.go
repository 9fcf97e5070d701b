package experiments

import (
	"fmt"

	"repro/internal/compiler"
	"repro/internal/maestro"
	"repro/internal/units"
)

// Ablations for the design choices the paper argues for (DESIGN.md §4):
// the dual-condition policy over gating on power alone (§IV-A), and
// per-core duty-cycle throttling over socket-wide DVFS (§IV). A third
// study exercises the §V/§VI outlook: concurrency throttling as the
// actuator of a power-capping controller.

// PolicyAblationRow compares the gating policies on one application.
type PolicyAblationRow struct {
	App            string
	Baseline       Measurement // fixed 16, no daemon
	Dual           Measurement // dual-condition daemon (the paper's)
	PowerOnly      Measurement // power-only daemon
	Adaptive       Measurement // phase-aware model-based daemon
	DualDeltaE     float64     // energy delta vs baseline, percent
	PowerDeltaE    float64
	AdaptiveDeltaE float64
}

// policyAblationApps are the ablation's subjects: one well-scaling
// high-power program (sparselu — the paper's example of what PowerOnly
// wrongly throttles and what every policy must leave alone) plus the
// four poorly-scaling throttling targets of Tables IV–VII.
func policyAblationApps() []string {
	return append([]string{compiler.AppSparseLUSingle}, ThrottleApps()...)
}

// policyAblationVariants is the number of arms per app (baseline, dual,
// power-only, adaptive).
const policyAblationVariants = 4

// policyAblationSpec builds the RunSpec for one (app, variant) cell.
// Every arm of an app runs the *identical* seeded scenario — same
// machine incarnation parameters, same workload inputs, no fault
// schedule — differing only by policy, so the energy deltas are
// attributable to the policy alone. Lab.Measure seeds each cell's
// machine and workload RNGs from lab.Seed + repeat index, never from a
// shared RNG, so arms cannot perturb each other however the worker
// pool interleaves them (see TestPolicyAblationArmFairness).
func policyAblationSpec(app string, variant int) RunSpec {
	target := compiler.Target{Compiler: compiler.GCC, Opt: compiler.O3}
	spec := RunSpec{App: app, Target: target, Workers: FullThreads, SpinOnlyIdle: true}
	switch variant {
	case 1:
		spec.Throttle = ThrottleDynamic
	case 2:
		spec.Throttle = ThrottleDynamic
		spec.Maestro = maestro.Config{Policy: maestro.PowerOnly}
	case 3:
		spec.Throttle = ThrottleDynamic
		spec.Maestro = maestro.Config{Policy: maestro.Adaptive}
	}
	return spec
}

// PolicyAblation reproduces the paper's §IV-A argument — "when only
// average power is used to determine throttling, it often limits thread
// count for programs running at high efficiency and increased overall
// energy consumption" — and extends it with the Adaptive arm (ROADMAP
// item 3): the paper's dual-condition classifier always throttles to
// the one configured limit, while the adaptive policy hill-climbs to
// the energy-optimal operating point per workload phase and should beat
// it on every poorly-scaling app without touching sparselu.
func (lab *Lab) PolicyAblation() ([]PolicyAblationRow, error) {
	apps := policyAblationApps()
	rows := make([]PolicyAblationRow, len(apps))
	for i, app := range apps {
		rows[i].App = app
	}
	// Independent runs per app; every cell fills its own field of the
	// app's row, deltas are derived once all cells are in.
	err := lab.runCells(len(apps)*policyAblationVariants, func(i int) error {
		app, variant := apps[i/policyAblationVariants], i%policyAblationVariants
		meas, err := lab.Measure(policyAblationSpec(app, variant))
		if err != nil {
			return err
		}
		row := &rows[i/policyAblationVariants]
		switch variant {
		case 0:
			row.Baseline = meas
		case 1:
			row.Dual = meas
		case 2:
			row.PowerOnly = meas
		case 3:
			row.Adaptive = meas
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range rows {
		base := rows[i].Baseline.Joules
		rows[i].DualDeltaE = (rows[i].Dual.Joules - base) / base * 100
		rows[i].PowerDeltaE = (rows[i].PowerOnly.Joules - base) / base * 100
		rows[i].AdaptiveDeltaE = (rows[i].Adaptive.Joules - base) / base * 100
	}
	return rows, nil
}

// MechanismAblationRow compares the two actuators on one application.
type MechanismAblationRow struct {
	App       string
	Gear      float64     // DVFS frequency scale used while engaged
	Baseline  Measurement // fixed 16, no daemon
	DutyCycle Measurement // concurrency throttling (the paper's choice)
	DVFS      Measurement // socket-wide frequency scaling
}

// MechanismAblation compares per-core duty-cycle concurrency throttling
// against socket-wide DVFS on two throttling targets:
//
//   - dijkstra, at a gear deep enough to bite (0.45): its threads make
//     memory-limited progress at about half speed, so cutting every
//     core's clock below that cuts into useful work and DVFS loses
//     time — the paper's §IV criticism that DVFS "affects all cores on
//     a processor" while duty-cycle throttling, which only slows the
//     *surplus* spinners, actually recovers time on this program.
//   - lulesh, at the default gear (0.6): it is so deeply
//     bandwidth-saturated that a socket-wide frequency cut is almost
//     free and saves more energy than parking surplus workers —
//     reproducing the complementary finding of the DVFS literature the
//     paper cites (Ge et al. [15]: fixed-frequency savings for
//     memory-bound codes).
//
// The two rows together map out where each mechanism wins.
func (lab *Lab) MechanismAblation() ([]MechanismAblationRow, error) {
	target := compiler.Target{Compiler: compiler.GCC, Opt: compiler.O3}
	cases := []struct {
		app  string
		gear float64
	}{
		{compiler.AppDijkstra, 0.45},
		{compiler.AppLULESH, 0.6},
	}
	rows := make([]MechanismAblationRow, len(cases))
	for i, c := range cases {
		rows[i].App, rows[i].Gear = c.app, c.gear
	}
	err := lab.runCells(len(cases)*3, func(i int) error {
		c, variant := cases[i/3], i%3
		spec := RunSpec{App: c.app, Target: target, Workers: FullThreads, Scale: throttleScale(c.app), SpinOnlyIdle: true}
		switch variant {
		case 1:
			spec.Throttle = ThrottleDynamic
		case 2:
			spec.Throttle = ThrottleDynamic
			spec.Maestro = maestro.Config{Mechanism: maestro.ScaleFrequency, FrequencyGear: c.gear}
		}
		meas, err := lab.Measure(spec)
		if err != nil {
			return err
		}
		row := &rows[i/3]
		switch variant {
		case 0:
			row.Baseline = meas
		case 1:
			row.DutyCycle = meas
		case 2:
			row.DVFS = meas
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// PowerCapResult is the outcome of running a workload under a node power
// bound.
type PowerCapResult struct {
	App       string
	Cap       units.Watts
	Uncapped  Measurement
	Capped    Measurement
	CapStats  maestro.CapStats
	AvgCapped units.Watts
}

// PowerCapStudy runs a sustained high-power program with and without a
// power-capping controller driving the concurrency throttle.
func (lab *Lab) PowerCapStudy(cap units.Watts) (PowerCapResult, error) {
	if cap <= 0 {
		return PowerCapResult{}, fmt.Errorf("experiments: power cap %v must be positive", cap)
	}
	const app = compiler.AppSparseLUSingle
	target := compiler.Target{Compiler: compiler.GCC, Opt: compiler.O3}
	// A longer run gives the controller time to converge.
	base := RunSpec{App: app, Target: target, Workers: FullThreads, Scale: 3, SpinOnlyIdle: true}
	var uncapped, capped Measurement
	err := lab.runCells(2, func(i int) error {
		spec := base
		if i == 1 {
			spec.PowerCap = cap
		}
		meas, err := lab.Measure(spec)
		if err != nil {
			return err
		}
		if i == 0 {
			uncapped = meas
		} else {
			capped = meas
		}
		return nil
	})
	if err != nil {
		return PowerCapResult{}, err
	}
	return PowerCapResult{
		App:       app,
		Cap:       cap,
		Uncapped:  uncapped,
		Capped:    capped,
		CapStats:  capped.Cap,
		AvgCapped: units.Watts(capped.Watts),
	}, nil
}

package experiments

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/compiler"
	"repro/internal/maestro"
)

func TestPolicyAblation(t *testing.T) {
	lab := NewLab()
	rows, err := lab.PolicyAblation()
	if err != nil {
		t.Fatal(err)
	}
	byApp := map[string]PolicyAblationRow{}
	for _, r := range rows {
		byApp[r.App] = r
		t.Logf("%s: baseline %.2fs/%.0fJ  dual %.2fs/%.0fJ (%+.1f%%)  power-only %.2fs/%.0fJ (%+.1f%%)",
			r.App, r.Baseline.Seconds, r.Baseline.Joules,
			r.Dual.Seconds, r.Dual.Joules, r.DualDeltaE,
			r.PowerOnly.Seconds, r.PowerOnly.Joules, r.PowerDeltaE)
	}

	// sparselu scales well: the dual-condition daemon must leave it
	// alone, while power-only throttles it and costs time and energy
	// (paper §IV-A).
	slu := byApp[compiler.AppSparseLUSingle]
	if slu.Dual.Daemon.Activations != 0 {
		t.Errorf("dual-condition throttled sparselu %d times", slu.Dual.Daemon.Activations)
	}
	if slu.PowerOnly.Daemon.Activations == 0 {
		t.Error("power-only never throttled sparselu despite its high power")
	}
	if slu.PowerOnly.Seconds <= slu.Baseline.Seconds*1.05 {
		t.Errorf("power-only throttling cost sparselu only %.1f%% time",
			(slu.PowerOnly.Seconds/slu.Baseline.Seconds-1)*100)
	}
	if slu.PowerOnly.Joules <= slu.Baseline.Joules {
		t.Error("power-only throttling did not increase sparselu's energy")
	}
	// lulesh is a legitimate target: both policies should save energy.
	ll := byApp[compiler.AppLULESH]
	if ll.Dual.Daemon.Activations == 0 {
		t.Error("dual-condition never throttled lulesh")
	}
	if ll.DualDeltaE >= 0 {
		t.Errorf("dual-condition did not save energy on lulesh (%+.1f%%)", ll.DualDeltaE)
	}
}

func TestMechanismAblation(t *testing.T) {
	lab := NewLab()
	rows, err := lab.MechanismAblation()
	if err != nil {
		t.Fatal(err)
	}
	byApp := map[string]MechanismAblationRow{}
	for _, r := range rows {
		byApp[r.App] = r
		t.Logf("%s: baseline %.2fs/%.0fJ  duty %.2fs/%.0fJ  dvfs %.2fs/%.0fJ",
			r.App, r.Baseline.Seconds, r.Baseline.Joules,
			r.DutyCycle.Seconds, r.DutyCycle.Joules,
			r.DVFS.Seconds, r.DVFS.Joules)
		if r.DutyCycle.Daemon.Activations == 0 || r.DVFS.Daemon.Activations == 0 {
			t.Errorf("%s: a mechanism never engaged (duty %d, dvfs %d)",
				r.App, r.DutyCycle.Daemon.Activations, r.DVFS.Daemon.Activations)
		}
		// Duty-cycle throttling must save energy vs baseline everywhere.
		if r.DutyCycle.Joules >= r.Baseline.Joules {
			t.Errorf("%s: duty-cycle throttling saved no energy", r.App)
		}
	}
	// dijkstra at gear 0.45: socket-wide DVFS slows the useful threads
	// (the paper's §IV criticism); duty-cycle throttling instead
	// recovers time.
	dj := byApp[compiler.AppDijkstra]
	if dj.DVFS.Seconds <= dj.DutyCycle.Seconds*1.05 {
		t.Errorf("dijkstra: DVFS (%.2f s) not clearly slower than duty-cycle throttling (%.2f s)",
			dj.DVFS.Seconds, dj.DutyCycle.Seconds)
	}
	// lulesh is bandwidth-saturated: DVFS is nearly free there and saves
	// more energy (the Ge et al. memory-bound finding).
	l := byApp[compiler.AppLULESH]
	if l.DVFS.Seconds > l.Baseline.Seconds*1.10 {
		t.Errorf("lulesh: DVFS cost %.1f%% time on a bandwidth-bound code",
			(l.DVFS.Seconds/l.Baseline.Seconds-1)*100)
	}
	if l.DVFS.Joules >= l.Baseline.Joules {
		t.Error("lulesh: DVFS saved no energy on a bandwidth-bound code")
	}
}

func TestPowerCapStudy(t *testing.T) {
	lab := NewLab()
	res, err := lab.PowerCapStudy(120)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s uncapped %.1f W / %.2f s; capped@%v %.1f W / %.2f s (tightenings %d, min limit %d)",
		res.App, res.Uncapped.Watts, res.Uncapped.Seconds,
		res.Cap, res.Capped.Watts, res.Capped.Seconds,
		res.Capped.Daemon.Tightenings, res.Capped.Daemon.MinLimit)
	if res.Uncapped.Watts <= 130 {
		t.Fatalf("uncapped power only %.1f W; the study needs a high-power load", res.Uncapped.Watts)
	}
	// The average includes the convergence transient; allow a modest
	// overshoot but require a substantial reduction and actual control
	// activity.
	if res.Capped.Watts > float64(res.Cap)*1.10 {
		t.Errorf("capped average %.1f W far above the %.0f W bound", res.Capped.Watts, float64(res.Cap))
	}
	if res.Capped.Daemon.Tightenings == 0 {
		t.Error("controller never tightened")
	}
	// Capping costs time; it must not cost correctness or hang.
	if res.Capped.Seconds <= res.Uncapped.Seconds {
		t.Error("capped run was not slower than uncapped")
	}
}

// TestThrottlingPreservesCorrectness forces permanent aggressive
// throttling (limit 1 per shepherd) on every throttling target and
// checks the answers still validate: the mechanism may cost time but
// must never change results.
func TestThrottlingPreservesCorrectness(t *testing.T) {
	lab := NewLab()
	target := compiler.Target{Compiler: compiler.GCC, Opt: compiler.O3}
	for _, app := range ThrottleApps() {
		spec := RunSpec{
			App:          app,
			Target:       target,
			Workers:      FullThreads,
			Scale:        0.2,
			SpinOnlyIdle: true,
			Throttle:     ThrottleDynamic,
			Maestro: maestro.Config{
				ThrottleLimit: 1,
				// Hair-trigger thresholds: engage on any activity.
				Thresholds: maestro.Thresholds{
					HighPower: 30, LowPower: 25,
					HighConcurrency: 0.5, LowConcurrency: 0.1,
				},
			},
		}
		meas, err := lab.Measure(spec)
		if err != nil {
			t.Fatalf("%s under aggressive throttling: %v", app, err)
		}
		if meas.Daemon.Activations == 0 {
			t.Errorf("%s: hair-trigger thresholds never engaged", app)
		}
	}
}

// TestPolicyAblationAdaptiveArm pins the Adaptive policy's acceptance
// envelope (ROADMAP items 3(c) and 10): it must beat the paper's dual-condition
// classifier on total energy for every poorly-scaling app — by at least
// 3% on at least one — while leaving the well-scaling sparselu within
// the 0.6% overhead bound.
func TestPolicyAblationAdaptiveArm(t *testing.T) {
	lab := NewLab()
	rows, err := lab.PolicyAblation()
	if err != nil {
		t.Fatal(err)
	}
	bestEdge := 0.0
	for _, r := range rows {
		t.Logf("%s: baseline %.0fJ  dual %.0fJ (%+.1f%%)  adaptive %.0fJ (%+.1f%%)",
			r.App, r.Baseline.Joules, r.Dual.Joules, r.DualDeltaE,
			r.Adaptive.Joules, r.AdaptiveDeltaE)
		if r.App == compiler.AppSparseLUSingle {
			// Well-scaling: the adaptive arm must not engage at all, and
			// its run time must stay within the 0.6% overhead bound.
			if r.Adaptive.Daemon.Activations != 0 {
				t.Errorf("adaptive throttled sparselu %d times", r.Adaptive.Daemon.Activations)
			}
			if r.Adaptive.Seconds > r.Baseline.Seconds*1.006 {
				t.Errorf("adaptive cost sparselu %.2f%% time, bound is 0.6%%",
					(r.Adaptive.Seconds/r.Baseline.Seconds-1)*100)
			}
			continue
		}
		if r.Adaptive.Joules >= r.Dual.Joules {
			t.Errorf("%s: adaptive (%.0fJ) did not beat dual-condition (%.0fJ)",
				r.App, r.Adaptive.Joules, r.Dual.Joules)
		}
		if edge := r.DualDeltaE - r.AdaptiveDeltaE; edge > bestEdge {
			bestEdge = edge
		}
	}
	if bestEdge < 3 {
		t.Errorf("adaptive's best edge over dual-condition is %.1f points, want >= 3", bestEdge)
	}
}

// TestPolicyAblationArmFairness guards the ablation's comparability
// (ISSUE satellite: arm fairness). Every arm of an app must run the
// identical seeded scenario — the specs may differ only by policy — and
// the whole study must be bit-for-bit deterministic regardless of how
// the worker pool interleaves cells, which would not hold if any cell
// drew from a shared RNG.
func TestPolicyAblationArmFairness(t *testing.T) {
	// Spec-level fairness: scrub the policy fields and every variant
	// must collapse onto the baseline spec.
	for _, app := range policyAblationApps() {
		base := policyAblationSpec(app, 0)
		for v := 1; v < policyAblationVariants; v++ {
			spec := policyAblationSpec(app, v)
			spec.Throttle = base.Throttle
			spec.Maestro = base.Maestro
			if !reflect.DeepEqual(spec, base) {
				t.Fatalf("%s variant %d differs from baseline beyond policy: %+v vs %+v",
					app, v, spec, base)
			}
		}
	}

	// Run-level determinism: two independent runs of the same cell, at
	// the ablation's own worker count — fresh machine, fresh runtime,
	// fresh workload each time — must agree to the last bit. This is
	// what would break if any cell drew from a shared RNG, or if the
	// measurement boundaries moved with the host (the cell's core.System
	// opens its region on the parked clock and parks it again at the
	// last task's completion).
	for _, app := range []string{compiler.AppHealth, compiler.AppDijkstra} {
		for v := 0; v < policyAblationVariants; v++ {
			spec := policyAblationSpec(app, v)
			var prev Measurement
			for run := 0; run < 2; run++ {
				m, err := NewLab().Measure(spec)
				if err != nil {
					t.Fatal(err)
				}
				if run > 0 && (math.Float64bits(m.Joules) != math.Float64bits(prev.Joules) ||
					math.Float64bits(m.Seconds) != math.Float64bits(prev.Seconds)) {
					t.Errorf("%s variant %d not deterministic: %x J/%x s then %x J/%x s",
						app, v, prev.Joules, prev.Seconds, m.Joules, m.Seconds)
				}
				prev = m
			}
		}
	}

	// And the arms must actually diverge where policy matters: a study
	// whose variants all produced identical measurements would be fair
	// but vacuous.
	lab := NewLab()
	rows, err := lab.PolicyAblation()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.Baseline.Daemon.Activations > 0 {
			t.Errorf("%s: baseline arm ran a daemon (%d activations)", row.App, row.Baseline.Daemon.Activations)
		}
		if row.App == compiler.AppLULESH && row.Dual.Joules == row.Adaptive.Joules {
			t.Errorf("%s: dual and adaptive arms coincide exactly — policy plumbing broken", row.App)
		}
	}
}

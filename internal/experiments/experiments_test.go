package experiments

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/compiler"
)

// at reads a series' speedup and normalized energy at a thread count.
func at(s Series, threads int) (speedup, normEnergy float64, ok bool) {
	i := slices.Index(s.Threads, threads)
	if i < 0 {
		return 0, 0, false
	}
	return s.Speedup[i], s.NormEnergy[i], true
}

func TestThrottleTableLULESH(t *testing.T) {
	lab := NewLab()
	res, err := lab.ThrottleTable(compiler.AppLULESH)
	if err != nil {
		t.Fatal(err)
	}
	dyn, _ := res.Row(Dynamic16)
	f16, _ := res.Row(Fixed16)
	f12, _ := res.Row(Fixed12)

	t.Logf("lulesh dynamic: %.1fs %.0fJ %.1fW (paper %.1f/%.0f/%.1f)",
		dyn.Meas.Seconds, dyn.Meas.Joules, dyn.Meas.Watts,
		dyn.Paper.Seconds, dyn.Paper.Joules, dyn.Paper.Watts)
	t.Logf("lulesh fixed16: %.1fs %.0fJ %.1fW (paper %.1f/%.0f/%.1f)",
		f16.Meas.Seconds, f16.Meas.Joules, f16.Meas.Watts,
		f16.Paper.Seconds, f16.Paper.Joules, f16.Paper.Watts)
	t.Logf("lulesh fixed12: %.1fs %.0fJ %.1fW (paper %.1f/%.0f/%.1f)",
		f12.Meas.Seconds, f12.Meas.Joules, f12.Meas.Watts,
		f12.Paper.Seconds, f12.Paper.Joules, f12.Paper.Watts)

	// The daemon must actually engage (Table IV's premise).
	if dyn.Meas.Daemon.Activations == 0 {
		t.Fatal("MAESTRO never throttled lulesh")
	}
	// Headline result: dynamic throttling reduces power and total energy
	// versus fixed 16 threads (paper: 141.7 W vs 155.9 W; 6860 J vs
	// 7089 J, ~3.3% saving).
	if dyn.Meas.Watts >= f16.Meas.Watts-3 {
		t.Errorf("dynamic power %.1f W not clearly below fixed-16 %.1f W", dyn.Meas.Watts, f16.Meas.Watts)
	}
	// The upper bound is a sanity rail, not a paper claim (the model's
	// saving is 2-4x the paper's: EXPERIMENTS.md divergence 2). The seed
	// gives one value: 5,890.4 J dynamic against 6,691.2 J fixed-16, a
	// saving of 11.97 %.
	saving := (f16.Meas.Joules - dyn.Meas.Joules) / f16.Meas.Joules
	if saving < 0.005 || saving > 0.12 {
		t.Errorf("dynamic energy saving = %.1f%%, paper ~3.3%%", saving*100)
	}
	// OS-level parking (fixed 12) saves more power than throttled
	// spinning (paper: 131.5 W vs 141.7 W).
	if f12.Meas.Watts >= dyn.Meas.Watts-3 {
		t.Errorf("fixed-12 power %.1f W not clearly below dynamic %.1f W", f12.Meas.Watts, dyn.Meas.Watts)
	}
	// Fixed-16 run should resemble the paper's MAESTRO baseline.
	if math.Abs(f16.Meas.Seconds-f16.Paper.Seconds)/f16.Paper.Seconds > 0.15 {
		t.Errorf("fixed-16 time %.1f s, paper %.1f s", f16.Meas.Seconds, f16.Paper.Seconds)
	}
	if math.Abs(f16.Meas.Watts-f16.Paper.Watts)/f16.Paper.Watts > 0.10 {
		t.Errorf("fixed-16 power %.1f W, paper %.1f W", f16.Meas.Watts, f16.Paper.Watts)
	}
}

func TestThrottleTableDijkstra(t *testing.T) {
	lab := NewLab()
	res, err := lab.ThrottleTable(compiler.AppDijkstra)
	if err != nil {
		t.Fatal(err)
	}
	dyn, _ := res.Row(Dynamic16)
	f16, _ := res.Row(Fixed16)
	f12, _ := res.Row(Fixed12)
	t.Logf("dijkstra dyn/16/12: %.2f/%.2f/%.2f s, %.0f/%.0f/%.0f J, %.1f/%.1f/%.1f W",
		dyn.Meas.Seconds, f16.Meas.Seconds, f12.Meas.Seconds,
		dyn.Meas.Joules, f16.Meas.Joules, f12.Meas.Joules,
		dyn.Meas.Watts, f16.Meas.Watts, f12.Meas.Watts)

	// Paper Table V: fixed-16 ≈ 16.34 s; fixed-12 is slightly *faster*
	// (contention relief), and throttling recovers energy through time.
	if math.Abs(f16.Meas.Seconds-f16.Paper.Seconds)/f16.Paper.Seconds > 0.15 {
		t.Errorf("fixed-16 time %.2f s, paper %.2f s", f16.Meas.Seconds, f16.Paper.Seconds)
	}
	if f12.Meas.Seconds >= f16.Meas.Seconds*1.02 {
		t.Errorf("fixed-12 (%.2f s) not at least as fast as fixed-16 (%.2f s)", f12.Meas.Seconds, f16.Meas.Seconds)
	}
	if dyn.Meas.Daemon.Activations == 0 {
		t.Error("MAESTRO never throttled dijkstra")
	}
	saving := (f16.Meas.Joules - dyn.Meas.Joules) / f16.Meas.Joules
	if saving < 0 || saving > 0.12 {
		t.Errorf("dijkstra dynamic saving = %.1f%%, paper ~1.9%%", saving*100)
	}
}

func TestThrottleTableStrassen(t *testing.T) {
	lab := NewLab()
	res, err := lab.ThrottleTable(compiler.AppStrassen)
	if err != nil {
		t.Fatal(err)
	}
	dyn, _ := res.Row(Dynamic16)
	f16, _ := res.Row(Fixed16)
	t.Logf("strassen dyn/16: %.1f/%.1f s, %.0f/%.0f J, %.1f/%.1f W (activations %d)",
		dyn.Meas.Seconds, f16.Meas.Seconds, dyn.Meas.Joules, f16.Meas.Joules,
		dyn.Meas.Watts, f16.Meas.Watts, dyn.Meas.Daemon.Activations)
	if dyn.Meas.Daemon.Activations == 0 {
		t.Fatal("MAESTRO never throttled strassen")
	}
	// Paper Table VII: the throttled run was the *fastest* and used 3.2%
	// less energy: relief of memory oversubscription.
	if dyn.Meas.Seconds > f16.Meas.Seconds*1.03 {
		t.Errorf("dynamic strassen %.1f s much slower than fixed-16 %.1f s (paper: slightly faster)",
			dyn.Meas.Seconds, f16.Meas.Seconds)
	}
	saving := (f16.Meas.Joules - dyn.Meas.Joules) / f16.Meas.Joules
	if saving < 0.01 || saving > 0.15 {
		t.Errorf("strassen dynamic saving = %.1f%%, paper ~3.2%%", saving*100)
	}
}

func TestThrottleTableHealth(t *testing.T) {
	lab := NewLab()
	res, err := lab.ThrottleTable(compiler.AppHealth)
	if err != nil {
		t.Fatal(err)
	}
	dyn, _ := res.Row(Dynamic16)
	f16, _ := res.Row(Fixed16)
	t.Logf("health dyn/16: %.2f/%.2f s, %.1f/%.1f J, %.1f/%.1f W (activations %d)",
		dyn.Meas.Seconds, f16.Meas.Seconds, dyn.Meas.Joules, f16.Meas.Joules,
		dyn.Meas.Watts, f16.Meas.Watts, dyn.Meas.Daemon.Activations)
	if dyn.Meas.Daemon.Activations == 0 {
		t.Fatal("MAESTRO never throttled health")
	}
	// Paper Table VI: a small net energy decrease (173 vs 176.3 J).
	saving := (f16.Meas.Joules - dyn.Meas.Joules) / f16.Meas.Joules
	if saving < 0 || saving > 0.15 {
		t.Errorf("health dynamic saving = %.1f%%, paper ~1.9%%", saving*100)
	}
}

func TestThrottleTableRejectsOtherApps(t *testing.T) {
	lab := NewLab()
	if _, err := lab.ThrottleTable(compiler.AppNQueens); err == nil {
		t.Error("ThrottleTable accepted an app outside Tables IV-VII")
	}
}

func TestThrottleOverheadOnWellScalingApps(t *testing.T) {
	lab := NewLab()
	rows, err := lab.ThrottleOverhead()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		t.Logf("%s: fixed %.2fs dynamic %.2fs overhead %.2f%% activations %d",
			r.App, r.FixedSec, r.DynamicSec, r.OverheadPct, r.Activations)
		// Paper §IV-B: never throttles, overhead up to 0.6%.
		if r.Activations != 0 {
			t.Errorf("%s: daemon activated %d times on a well-scaling app", r.App, r.Activations)
		}
		if r.OverheadPct > 2.0 {
			t.Errorf("%s: overhead %.2f%%, paper reports <= 0.6%%", r.App, r.OverheadPct)
		}
	}
}

func TestColdStart(t *testing.T) {
	lab := NewLab()
	res, err := lab.ColdStart()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("cold %.0f J / %.1f W, warm %.0f J / %.1f W, saving %.1f%%",
		res.ColdJoules, res.ColdWatts, res.WarmJoules, res.WarmWatts, res.SavingPct)
	// Paper fn.2: first run used 3.2% less energy and drew lower power.
	if res.SavingPct < 0.5 || res.SavingPct > 6 {
		t.Errorf("cold-start saving = %.1f%%, paper ~3.2%%", res.SavingPct)
	}
	if res.ColdWatts >= res.WarmWatts {
		t.Error("cold run did not draw lower power")
	}
}

func TestDutyCycleSavings(t *testing.T) {
	lab := NewLab()
	res, err := lab.DutyCycleSavings()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("full %.1f W, throttled %.1f W, saving %.1f W",
		float64(res.FullPower), float64(res.ThrottledPower), float64(res.Saving))
	// Paper §IV: idling four threads saved over 12 W (134 vs 147 W).
	if res.Saving < 10 || res.Saving > 16 {
		t.Errorf("duty-cycle saving = %.1f W, paper ~12-13 W", float64(res.Saving))
	}
}

func TestTableIShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full table sweep in -short mode")
	}
	lab := NewLab()
	res, err := lab.TableI()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", buf.String())

	var worstTime, worstPower float64
	var worstTimeApp, worstPowerApp string
	for _, row := range res.Rows {
		for _, cell := range row.Cells {
			if cell.Skipped {
				continue
			}
			te := math.Abs(cell.Meas.Seconds-cell.Paper.Seconds) / cell.Paper.Seconds
			pe := math.Abs(cell.Meas.Watts-cell.Paper.Watts) / cell.Paper.Watts
			if te > worstTime {
				worstTime, worstTimeApp = te, row.App+" "+cell.Label
			}
			if pe > worstPower {
				worstPower, worstPowerApp = pe, row.App+" "+cell.Label
			}
		}
	}
	t.Logf("worst time error %.1f%% (%s), worst power error %.1f%% (%s)",
		worstTime*100, worstTimeApp, worstPower*100, worstPowerApp)
	if worstTime > 0.15 {
		t.Errorf("worst Table I time deviation %.1f%% (%s), want <= 15%%", worstTime*100, worstTimeApp)
	}
	if worstPower > 0.10 {
		t.Errorf("worst Table I power deviation %.1f%% (%s), want <= 10%%", worstPower*100, worstPowerApp)
	}
	// The qualitative compiler findings must hold: ICC wins big on
	// lulesh and micro-fibonacci; GCC's fib-with-cutoff uses less total
	// energy than ICC's despite being slower (Table I discussion).
	get := func(app string, col int) Measurement {
		for _, row := range res.Rows {
			if row.App == app {
				return row.Cells[col].Meas
			}
		}
		t.Fatalf("row %s missing", app)
		return Measurement{}
	}
	if !(get(compiler.AppLULESH, 1).Seconds < get(compiler.AppLULESH, 0).Seconds/2) {
		t.Error("ICC lulesh not dramatically faster than GCC")
	}
	gccFib := get(compiler.AppFibCutoff, 0)
	iccFib := get(compiler.AppFibCutoff, 1)
	if !(iccFib.Seconds < gccFib.Seconds && gccFib.Joules < iccFib.Joules) {
		t.Errorf("fib-cutoff energy inversion missing: gcc %.1fs/%.0fJ icc %.1fs/%.0fJ",
			gccFib.Seconds, gccFib.Joules, iccFib.Seconds, iccFib.Joules)
	}
}

func TestFigure1Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweep in -short mode")
	}
	lab := NewLab()
	fig, err := lab.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fig.Render(&buf); err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", buf.String())

	series := map[string]Series{}
	for _, s := range fig.Series {
		series[s.App] = s
	}
	// nqueens scales to 16; dijkstra to ~8; mergesort to ~2; fibonacci
	// and reduction anti-scale (paper §II-C.4).
	if sp, _, _ := at(series[compiler.AppNQueens], 16); sp < 11 {
		t.Errorf("nqueens speedup@16 = %.1f", sp)
	}
	s8, _, _ := at(series[compiler.AppDijkstra], 8)
	s16, _, _ := at(series[compiler.AppDijkstra], 16)
	if s8 < 5.5 || s16 > s8*1.15 {
		t.Errorf("dijkstra speedups 8/16 = %.1f/%.1f, want knee at 8", s8, s16)
	}
	if sp, _, _ := at(series[compiler.AppMergesort], 16); sp > 2.6 {
		t.Errorf("mergesort speedup@16 = %.1f, want ~2", sp)
	}
	if sp, _, _ := at(series[compiler.AppFibonacci], 16); sp >= 1 {
		t.Errorf("GCC fibonacci speedup@16 = %.2f, want < 1 (slower than serial)", sp)
	}
	if sp, _, _ := at(series[compiler.AppReduction], 16); sp >= 0.5 {
		t.Errorf("reduction speedup@16 = %.2f, paper ~0.31", sp)
	}
	// Energy minima: scaling programs bottom out at 16 threads; the
	// poorly-scaling ones below it (paper: energy rises 17-30% past the
	// knee).
	if k := series[compiler.AppNQueens].MinEnergyThreads(); k != 16 {
		t.Errorf("nqueens min-energy threads = %d, want 16", k)
	}
	for _, app := range []string{compiler.AppReduction, compiler.AppFibonacci, compiler.AppMergesort, compiler.AppDijkstra, compiler.AppLULESH} {
		if k := series[app].MinEnergyThreads(); k == 16 {
			t.Errorf("%s min-energy threads = 16, want below maximum", app)
		}
	}
	// Dijkstra's energy rise from the knee to 16 threads is ~17-30%.
	_, e8, _ := at(series[compiler.AppDijkstra], 8)
	_, e16, _ := at(series[compiler.AppDijkstra], 16)
	rise := (e16 - e8) / e8
	if rise < 0.10 || rise > 0.45 {
		t.Errorf("dijkstra energy rise 8->16 = %.0f%%, paper ~30%%", rise*100)
	}
}

func TestFigure3Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweep in -short mode")
	}
	lab := NewLab()
	fig, err := lab.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	series := map[string]Series{}
	for _, s := range fig.Series {
		series[s.App] = s
	}
	// Paper: most BOTS near-linear; health 6.7, sort 12.6, strassen 4.9.
	checks := map[string][2]float64{
		compiler.AppAlignmentFor:  {13, 16.5},
		compiler.AppFibCutoff:     {12, 16.5},
		compiler.AppNQueensCutoff: {12, 16.5},
		compiler.AppHealth:        {5, 8.5},
		compiler.AppSortCutoff:    {9.5, 15},
		compiler.AppStrassen:      {3.8, 6.2},
	}
	for app, bounds := range checks {
		sp, _, ok := at(series[app], 16)
		if !ok {
			t.Fatalf("%s missing from figure 3", app)
		}
		if sp < bounds[0] || sp > bounds[1] {
			t.Errorf("%s speedup@16 = %.1f, want in [%.1f, %.1f]", app, sp, bounds[0], bounds[1])
		}
	}
	// GCC sparselu-for is absent from the paper and must be skipped.
	if _, ok := series[compiler.AppSparseLUFor]; ok {
		t.Error("figure 3 contains sparselu-for under GCC, which the paper never built")
	}
}

func TestRenderAndCSV(t *testing.T) {
	// Rendering smoke tests on synthetic results (no runs).
	tab := TableResult{
		Title:   "demo",
		Columns: []string{"gcc -O2"},
		Rows: []TableRow{
			{App: "x", Cells: []TableCell{{Label: "gcc -O2", Meas: Measurement{Seconds: 1, Joules: 2, Watts: 3}, Paper: compiler.Entry{Seconds: 1, Joules: 2, Watts: 3}}}},
			{App: "y", Cells: []TableCell{{Label: "gcc -O2", Skipped: true}}},
		},
	}
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "demo") || !strings.Contains(buf.String(), "—") {
		t.Errorf("render output unexpected: %q", buf.String())
	}
	buf.Reset()
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 3 {
		t.Errorf("CSV has %d lines, want 3", lines)
	}

	fig := FigureResult{Title: "f", Series: []Series{{
		App: "x", Threads: []int{1, 2}, Seconds: []float64{2, 1}, Joules: []float64{10, 12},
		Watts: []float64{5, 12}, Speedup: []float64{1, 2}, NormEnergy: []float64{1, 1.2},
	}}}
	buf.Reset()
	if err := fig.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "min energy @1") {
		t.Errorf("figure render missing min-energy marker: %q", buf.String())
	}
	buf.Reset()
	if err := fig.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 3 {
		t.Errorf("figure CSV has %d lines, want 3", lines)
	}
}

func TestPaperThrottleEntries(t *testing.T) {
	for _, app := range ThrottleApps() {
		for _, cfg := range []ThrottleConfig{Dynamic16, Fixed16, Fixed12} {
			e, ok := PaperThrottleEntry(app, cfg)
			if !ok || e.Seconds <= 0 || e.Joules <= 0 || e.Watts <= 0 {
				t.Errorf("paper entry %s/%s invalid: %+v ok=%v", app, cfg, e, ok)
			}
			// Transcription check: J ≈ s × W.
			if math.Abs(e.Seconds*e.Watts-e.Joules)/e.Joules > 0.08 {
				t.Errorf("paper entry %s/%s inconsistent: %g != %g*%g", app, cfg, e.Joules, e.Seconds, e.Watts)
			}
		}
	}
	if _, ok := PaperThrottleEntry("nope", Fixed16); ok {
		t.Error("PaperThrottleEntry accepted unknown app")
	}
	if _, ok := PaperThrottleEntry(compiler.AppLULESH, ThrottleConfig("bogus")); ok {
		t.Error("PaperThrottleEntry accepted unknown config")
	}
}

func TestMeasureBestOfRepeats(t *testing.T) {
	// A run is a pure function of its seed, so best-of-3 is exactly the
	// fastest of three single runs at the same seeds.
	lab := NewLab()
	lab.Repeats = 3
	spec := RunSpec{App: compiler.AppNQueens, Target: compiler.Baseline, Workers: 16, Scale: 0.2}
	best, err := lab.Measure(spec)
	if err != nil {
		t.Fatal(err)
	}
	var want Measurement
	for r := int64(0); r < 3; r++ {
		single := NewLab()
		single.Seed = lab.Seed + r
		m, err := single.Measure(spec)
		if err != nil {
			t.Fatal(err)
		}
		if r == 0 || m.Seconds < want.Seconds {
			want = m
		}
	}
	if best != want {
		t.Errorf("best-of-3 %+v, fastest of the same three seeds %+v", best, want)
	}
}

func TestEDPRanksThrottling(t *testing.T) {
	// On strassen, dynamic throttling is faster AND cheaper than fixed
	// 16 (Table VII), so its energy-delay product must win too.
	lab := NewLab()
	res, err := lab.ThrottleTable(compiler.AppStrassen)
	if err != nil {
		t.Fatal(err)
	}
	dyn, _ := res.Row(Dynamic16)
	f16, _ := res.Row(Fixed16)
	if dyn.Meas.EDP() >= f16.Meas.EDP() {
		t.Errorf("dynamic EDP %.0f not below fixed-16 EDP %.0f", dyn.Meas.EDP(), f16.Meas.EDP())
	}
	if got := (Measurement{Joules: 10, Seconds: 2}).EDP(); got != 20 {
		t.Errorf("EDP arithmetic = %g", got)
	}
}

package experiments

import "repro/internal/compiler"

// Series is one application's thread sweep: the data behind one curve of
// Figures 1–4 (speedup and normalized energy versus thread count).
type Series struct {
	App        string
	Target     compiler.Target
	Threads    []int
	Seconds    []float64
	Joules     []float64
	Watts      []float64
	Speedup    []float64 // T(1)/T(k)
	NormEnergy []float64 // E(k)/E(1)
}

// FigureResult is one regenerated figure.
type FigureResult struct {
	Title  string
	Series []Series
}

// SimpleApps are the "SIMPLE/LULESH" programs of Figures 1 and 2: the
// micro-benchmarks plus the LULESH mini-app.
func SimpleApps() []string {
	return []string{
		compiler.AppReduction, compiler.AppNQueens, compiler.AppMergesort,
		compiler.AppFibonacci, compiler.AppDijkstra, compiler.AppLULESH,
	}
}

// BOTSApps are the programs of Figures 3 and 4.
func BOTSApps() []string {
	return []string{
		compiler.AppAlignmentFor, compiler.AppAlignmentSingle,
		compiler.AppFibCutoff, compiler.AppHealth, compiler.AppNQueensCutoff,
		compiler.AppSortCutoff, compiler.AppSparseLUFor,
		compiler.AppSparseLUSingle, compiler.AppStrassen,
	}
}

// Figure1 regenerates Figure 1 (micro + LULESH, GCC).
func (lab *Lab) Figure1() (FigureResult, error) {
	return lab.figure("Figure 1: SIMPLE/LULESH GCC speedup and normalized energy", SimpleApps(), compiler.GCC)
}

// Figure2 regenerates Figure 2 (micro + LULESH, ICC).
func (lab *Lab) Figure2() (FigureResult, error) {
	return lab.figure("Figure 2: SIMPLE/LULESH ICC speedup and normalized energy", SimpleApps(), compiler.ICC)
}

// Figure3 regenerates Figure 3 (BOTS, GCC).
func (lab *Lab) Figure3() (FigureResult, error) {
	return lab.figure("Figure 3: BOTS GCC speedup and normalized energy", BOTSApps(), compiler.GCC)
}

// Figure4 regenerates Figure 4 (BOTS, ICC).
func (lab *Lab) Figure4() (FigureResult, error) {
	return lab.figure("Figure 4: BOTS ICC speedup and normalized energy", BOTSApps(), compiler.ICC)
}

// figure sweeps thread counts for each app at -O2 with the given
// compiler. Apps the paper did not build with that compiler are skipped
// (e.g. sparselu-for under GCC). Every (app, thread-count) point is one
// cell, so the whole figure is measured at once rather than one curve at
// a time.
func (lab *Lab) figure(title string, apps []string, c compiler.Compiler) (FigureResult, error) {
	res := FigureResult{Title: title}
	target := compiler.Target{Compiler: c, Opt: compiler.O2}
	var supported []string
	var specs []RunSpec
	for _, app := range apps {
		if compiler.Supported(app, c) {
			supported = append(supported, app)
			specs = append(specs, sweepSpecs(app, target, sweepThreads)...)
		}
	}
	meas, err := lab.measureAll(specs)
	if err != nil {
		return FigureResult{}, err
	}
	n := len(sweepThreads)
	for i, app := range supported {
		res.Series = append(res.Series, deriveSeries(app, target, sweepThreads, meas[i*n:(i+1)*n]))
	}
	return res, nil
}

// Sweep measures one application across thread counts and derives the
// figure quantities.
func (lab *Lab) Sweep(app string, target compiler.Target, threads []int) (Series, error) {
	meas, err := lab.measureAll(sweepSpecs(app, target, threads))
	if err != nil {
		return Series{}, err
	}
	return deriveSeries(app, target, threads, meas), nil
}

// sweepSpecs is one application's thread sweep as specs.
func sweepSpecs(app string, target compiler.Target, threads []int) []RunSpec {
	specs := make([]RunSpec, len(threads))
	for i, k := range threads {
		specs[i] = RunSpec{App: app, Target: target, Workers: k}
	}
	return specs
}

// deriveSeries assembles a Series from per-thread-count measurements,
// deriving the figure quantities (speedup and normalized energy against
// the first point).
func deriveSeries(app string, target compiler.Target, threads []int, meas []Measurement) Series {
	s := Series{App: app, Target: target}
	for i, m := range meas {
		s.Threads = append(s.Threads, threads[i])
		s.Seconds = append(s.Seconds, m.Seconds)
		s.Joules = append(s.Joules, m.Joules)
		s.Watts = append(s.Watts, m.Watts)
	}
	if len(s.Seconds) > 0 && s.Seconds[0] > 0 && s.Joules[0] > 0 {
		for i := range s.Seconds {
			s.Speedup = append(s.Speedup, s.Seconds[0]/s.Seconds[i])
			s.NormEnergy = append(s.NormEnergy, s.Joules[i]/s.Joules[0])
		}
	}
	return s
}

// MinEnergyThreads returns the thread count with the lowest total energy
// — the quantity the paper's Figures highlight: for poorly-scaling
// programs it is below the maximum thread count.
func (s Series) MinEnergyThreads() int {
	best, bestIdx := 0.0, -1
	for i, j := range s.Joules {
		if bestIdx == -1 || j < best {
			best, bestIdx = j, i
		}
	}
	if bestIdx < 0 {
		return 0
	}
	return s.Threads[bestIdx]
}

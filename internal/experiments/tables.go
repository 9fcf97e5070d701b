package experiments

import "repro/internal/compiler"

// TableCell pairs one measurement with the paper's value for the same
// configuration.
type TableCell struct {
	Label string // column label, e.g. "gcc -O2"
	Meas  Measurement
	Paper compiler.Entry
	// Skipped marks configurations the paper did not measure (e.g.
	// sparselu-for with GCC).
	Skipped bool
}

// TableRow is one application's row.
type TableRow struct {
	App   string
	Cells []TableCell
}

// TableResult is a regenerated paper table.
type TableResult struct {
	Title   string
	Columns []string
	Rows    []TableRow
}

// TableI regenerates Table I: every application compiled with GCC and ICC
// at -O2 (with -ipo modeled inside the sparselu factors), 16 threads.
func (lab *Lab) TableI() (TableResult, error) {
	targets := []compiler.Target{
		{Compiler: compiler.GCC, Opt: compiler.O2},
		{Compiler: compiler.ICC, Opt: compiler.O2},
	}
	return lab.compilerTable("Table I: execution time and energy usage (16 threads, -O2)", targets)
}

// TableII regenerates Table II: GCC at O0–O3, 16 threads.
func (lab *Lab) TableII() (TableResult, error) {
	return lab.optTable("Table II: optimization level (GNU GCC, 16 threads)", compiler.GCC)
}

// TableIII regenerates Table III: ICC at O0–O3, 16 threads.
func (lab *Lab) TableIII() (TableResult, error) {
	return lab.optTable("Table III: optimization level (Intel ICC, 16 threads)", compiler.ICC)
}

func (lab *Lab) optTable(title string, c compiler.Compiler) (TableResult, error) {
	targets := make([]compiler.Target, 0, 4)
	for _, o := range []compiler.OptLevel{compiler.O0, compiler.O1, compiler.O2, compiler.O3} {
		targets = append(targets, compiler.Target{Compiler: c, Opt: o})
	}
	return lab.compilerTable(title, targets)
}

// compilerTable measures every suite application under each target at
// 16 threads. Configurations the paper did not measure are marked
// skipped and not run.
func (lab *Lab) compilerTable(title string, targets []compiler.Target) (TableResult, error) {
	res := TableResult{Title: title}
	for _, t := range targets {
		res.Columns = append(res.Columns, t.String())
	}
	var specs []RunSpec
	var measured []*TableCell
	for _, app := range compiler.Apps() {
		row := TableRow{App: app, Cells: make([]TableCell, len(targets))}
		for j, t := range targets {
			paper, ok := compiler.PaperEntry(app, t)
			row.Cells[j] = TableCell{Label: t.String(), Paper: paper, Skipped: !ok}
			if ok {
				specs = append(specs, RunSpec{App: app, Target: t, Workers: FullThreads})
				measured = append(measured, &row.Cells[j])
			}
		}
		res.Rows = append(res.Rows, row)
	}
	meas, err := lab.measureAll(specs)
	if err != nil {
		return TableResult{}, err
	}
	for i, m := range meas {
		measured[i].Meas = m
	}
	return res, nil
}

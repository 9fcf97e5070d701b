// Package suite assembles the complete benchmark suite of the paper's
// study — micro-benchmarks, BOTS programs and the LULESH mini-app — into
// a single registry keyed by the canonical application names.
package suite

import (
	"fmt"
	"sort"

	"repro/internal/compiler"
	"repro/internal/workloads"
	"repro/internal/workloads/bots"
	"repro/internal/workloads/lulesh"
	"repro/internal/workloads/micro"
)

// constructors maps canonical names to workload factories. Workloads are
// stateful (Prepare/Root/Validate), so every caller gets a fresh
// instance.
var constructors = map[string]func() workloads.Workload{
	compiler.AppReduction:       func() workloads.Workload { return micro.NewReduction() },
	compiler.AppNQueens:         func() workloads.Workload { return micro.NewNQueens() },
	compiler.AppMergesort:       func() workloads.Workload { return micro.NewMergesort() },
	compiler.AppFibonacci:       func() workloads.Workload { return micro.NewFibonacci() },
	compiler.AppDijkstra:        func() workloads.Workload { return micro.NewDijkstra() },
	compiler.AppAlignmentFor:    func() workloads.Workload { return bots.NewAlignmentFor() },
	compiler.AppAlignmentSingle: func() workloads.Workload { return bots.NewAlignmentSingle() },
	compiler.AppFibCutoff:       func() workloads.Workload { return bots.NewFib() },
	compiler.AppHealth:          func() workloads.Workload { return bots.NewHealth() },
	compiler.AppNQueensCutoff:   func() workloads.Workload { return bots.NewNQueens() },
	compiler.AppSortCutoff:      func() workloads.Workload { return bots.NewSort() },
	compiler.AppSparseLUFor:     func() workloads.Workload { return bots.NewSparseLUFor() },
	compiler.AppSparseLUSingle:  func() workloads.Workload { return bots.NewSparseLUSingle() },
	compiler.AppStrassen:        func() workloads.Workload { return bots.NewStrassen() },
	compiler.AppLULESH:          func() workloads.Workload { return lulesh.New() },
}

// New creates a fresh instance of the named workload.
func New(name string) (workloads.Workload, error) {
	c, ok := constructors[name]
	if !ok {
		return nil, fmt.Errorf("suite: unknown workload %q (see Names)", name)
	}
	return c(), nil
}

// Names lists every workload in the paper's table order.
func Names() []string {
	names := compiler.Apps()
	// Guard against registry drift.
	for _, n := range names {
		if _, ok := constructors[n]; !ok {
			panic(fmt.Sprintf("suite: %s missing from registry", n))
		}
	}
	if len(names) != len(constructors) {
		extra := make([]string, 0)
		seen := map[string]bool{}
		for _, n := range names {
			seen[n] = true
		}
		for n := range constructors {
			if !seen[n] {
				extra = append(extra, n)
			}
		}
		sort.Strings(extra)
		panic(fmt.Sprintf("suite: registry has workloads outside the table: %v", extra))
	}
	return names
}

package suite

import (
	"testing"
	"time"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/workloads"
)

func TestNamesMatchPaperApps(t *testing.T) {
	names := Names()
	if len(names) != 15 {
		t.Fatalf("suite has %d workloads, want 15", len(names))
	}
	apps := compiler.Apps()
	for i, n := range names {
		if n != apps[i] {
			t.Errorf("names[%d] = %q, want %q (table order)", i, n, apps[i])
		}
	}
}

func TestNewUnknown(t *testing.T) {
	if _, err := New("bogus"); err == nil {
		t.Error("New(bogus) succeeded")
	}
}

func TestNewReturnsFreshInstances(t *testing.T) {
	a, err := New(compiler.AppDijkstra)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(compiler.AppDijkstra)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("New returned a shared instance")
	}
}

// TestEveryWorkloadRunsAndValidates executes the full suite once at a
// reduced scale — a whole-stack integration check that every benchmark
// produces a correct answer under the real scheduler.
func TestEveryWorkloadRunsAndValidates(t *testing.T) {
	cfg := machine.M620()
	cfg.VirtualTimeLimit = 60 * time.Minute
	for _, name := range Names() {
		wl, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			target := compiler.Baseline
			if !compiler.Supported(wl.Name(), compiler.GCC) {
				target = compiler.Target{Compiler: compiler.ICC, Opt: compiler.O2}
			}
			if err := wl.Prepare(workloads.Params{
				MachineConfig: cfg,
				Target:        target,
				Scale:         0.2,
			}); err != nil {
				t.Fatal(err)
			}
			sys, err := core.New(core.Options{Machine: cfg, Workers: 16, Warm: true})
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			rep, err := sys.RunWorkload(wl)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Elapsed <= 0 || rep.Energy <= 0 {
				t.Errorf("empty report: %+v", rep)
			}
		})
	}
}

package experiments

import (
	"testing"
	"time"

	"repro/internal/compiler"
	"repro/internal/machine"
	"repro/internal/qthreads"
	"repro/internal/workloads"
	"repro/internal/workloads/suite"
)

// measureCompactDijkstra runs dijkstra with 8 workers packed onto socket
// 0 and returns the elapsed seconds.
func measureCompactDijkstra(t *testing.T, scale float64) float64 {
	t.Helper()
	mcfg := machine.M620()
	mcfg.VirtualTimeLimit = 30 * time.Minute
	m, err := machine.New(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	m.WarmAll(workloads.WarmTemp)
	wl, err := suite.New(compiler.AppDijkstra)
	if err != nil {
		t.Fatal(err)
	}
	if err := wl.Prepare(workloads.Params{MachineConfig: mcfg, Scale: scale}); err != nil {
		t.Fatal(err)
	}
	rt, err := qthreads.New(m, qthreads.Config{Workers: 8, Pinning: qthreads.Compact})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	start := m.Now()
	if err := rt.Run(wl.Root()); err != nil {
		t.Fatal(err)
	}
	if err := wl.Validate(); err != nil {
		t.Fatal(err)
	}
	return (m.Now() - start).Seconds()
}

// Package lulesh implements a proxy for the LLNL LULESH hydrodynamics
// mini-app the paper evaluates (§II, reference [6]): an explicit
// Lagrangian shock-hydro timestep loop solving a Sedov-like blast wave on
// a 3D mesh. Per timestep it runs a serial timestep-control reduction
// followed by two parallel sweeps (a stencil flux/stress phase and an
// element-local equation-of-state phase), double-buffered so the result
// is schedule-independent.
//
// Mechanism (DESIGN.md §5): the parallel sweeps stream the mesh with
// aggressive overlap, demanding each core's full memory pipeline — the
// node saturates near 5 effective threads while drawing ~145 W, which
// together with its high memory concurrency makes LULESH the paper's
// primary throttling case study (Table IV).
package lulesh

import (
	"fmt"
	"math"

	"repro/internal/compiler"
	"repro/internal/machine"
	"repro/internal/qthreads"
	"repro/internal/workloads"
)

// Mesh and mechanism constants.
const (
	meshEdge    = 20 // 8000 elements
	timesteps   = 45
	satShare    = 2.4  // per-core demand clamps at the line-fill limit
	overlap     = 0.90 // overlapped stalls draw near-active power
	serialShare = 0.03 // timestep-control fraction of 16-thread wall time
	gamma       = 1.4  // ideal-gas EOS
)

// LULESH is the workload.
type LULESH struct {
	n     int // elements per edge
	elems int
	steps int

	wantE []float64 // serial reference energies
	gotE  []float64

	// Charge model.
	bytesPerCycle float64
	activity      float64
	parPerChunk   float64 // cycles per parallel chunk per stage
	serialCycles  float64 // per-step serial charge
	chunk         int
	nChunks       int
}

// New creates the workload.
func New() *LULESH { return &LULESH{} }

// Name returns the canonical app name.
func (l *LULESH) Name() string { return compiler.AppLULESH }

// Prepare builds the mesh, computes the serial reference, and calibrates
// charges.
func (l *LULESH) Prepare(p workloads.Params) error {
	p = p.WithDefaults()
	seconds, watts, err := workloads.Anchor(l.Name(), p.Target, p.Scale)
	if err != nil {
		return err
	}
	l.n = meshEdge
	l.elems = l.n * l.n * l.n
	l.steps = timesteps

	cfg := p.MachineConfig
	f := float64(cfg.BaseFreq)
	demand, afBW, util := workloads.Knee(cfg, satShare)
	l.bytesPerCycle = demand / f

	parSeconds := seconds * (1 - serialShare)
	parCycles := parSeconds * float64(cfg.Cores()) * f * afBW
	l.chunk = l.elems / 192
	if l.chunk < 1 {
		l.chunk = 1
	}
	l.nChunks = (l.elems + l.chunk - 1) / l.chunk
	// Two parallel sweeps per step share the budget.
	l.parPerChunk = parCycles / float64(l.steps*2*l.nChunks)
	l.serialCycles = seconds * serialShare * f / float64(l.steps)

	l.activity = workloads.SolveActivity(cfg, watts,
		cfg.CoresPerSocket, 0, 0, afBW, overlap, util)

	// Serial reference.
	e, pres := l.initialState()
	for s := 0; s < l.steps; s++ {
		dt := timestepControl(e)
		e, pres = l.sweepSerial(e, pres, dt)
	}
	l.wantE = e
	l.gotE = nil
	return nil
}

// initialState deposits the Sedov energy spike at the origin element.
func (l *LULESH) initialState() (energy, pressure []float64) {
	energy = make([]float64, l.elems)
	pressure = make([]float64, l.elems)
	for i := range energy {
		energy[i] = 1e-6
	}
	energy[0] = 3.948746e2 // the LULESH spec's origin energy
	for i := range pressure {
		pressure[i] = (gamma - 1) * energy[i]
	}
	return energy, pressure
}

// timestepControl is the serial reduction choosing the next dt (a
// courant-like condition on the energy field).
func timestepControl(e []float64) float64 {
	maxE := 0.0
	for _, v := range e {
		if v > maxE {
			maxE = v
		}
	}
	dt := 0.05 / math.Sqrt(1+maxE)
	if dt > 0.01 {
		dt = 0.01
	}
	return dt
}

// idx flattens 3D mesh coordinates.
func (l *LULESH) idx(x, y, z int) int { return (z*l.n+y)*l.n + x }

// fluxAt computes the energy flux divergence at one element from the
// previous step's pressure field (a 6-point stencil).
func (l *LULESH) fluxAt(pres []float64, x, y, z int) float64 {
	c := pres[l.idx(x, y, z)]
	sum := 0.0
	add := func(nx, ny, nz int) {
		if nx < 0 || ny < 0 || nz < 0 || nx >= l.n || ny >= l.n || nz >= l.n {
			sum += 0 // reflective boundary: no flux
			return
		}
		sum += pres[l.idx(nx, ny, nz)] - c
	}
	add(x-1, y, z)
	add(x+1, y, z)
	add(x, y-1, z)
	add(x, y+1, z)
	add(x, y, z-1)
	add(x, y, z+1)
	return sum
}

// updateRange advances elements [lo, hi): stage 1 accumulates stencil
// fluxes into the new energy field; stage 2 applies the EOS. Both read
// only previous-step arrays, so any parallel schedule reproduces the
// serial result bitwise.
func (l *LULESH) fluxRange(eNew, e, pres []float64, dt float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		x := i % l.n
		y := (i / l.n) % l.n
		z := i / (l.n * l.n)
		v := e[i] + dt*0.16*l.fluxAt(pres, x, y, z)
		if v < 0 {
			v = 0
		}
		eNew[i] = v
	}
}

func (l *LULESH) eosRange(pNew, eNew []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		pNew[i] = (gamma - 1) * eNew[i]
	}
}

// sweepSerial advances one step serially (reference path).
func (l *LULESH) sweepSerial(e, pres []float64, dt float64) (eNew, pNew []float64) {
	eNew = make([]float64, l.elems)
	pNew = make([]float64, l.elems)
	l.fluxRange(eNew, e, pres, dt, 0, l.elems)
	l.eosRange(pNew, eNew, 0, l.elems)
	return eNew, pNew
}

// Root returns the benchmark body.
func (l *LULESH) Root() qthreads.Task {
	return func(tc *qthreads.TC) {
		e, pres := l.initialState()
		eNew := make([]float64, l.elems)
		pNew := make([]float64, l.elems)
		work := func(cycles float64) machine.Work {
			return machine.Work{
				Ops:      cycles,
				Bytes:    cycles * l.bytesPerCycle,
				Activity: l.activity,
				Overlap:  overlap,
			}
		}
		for s := 0; s < l.steps; s++ {
			// Serial timestep control (paper: the phase that keeps
			// LULESH from perfect scaling).
			dt := timestepControl(e)
			tc.Compute(l.serialCycles)
			// Parallel sweep 1: stencil flux integration.
			tc.ParallelFor(l.elems, l.chunk, func(tc *qthreads.TC, lo, hi int) {
				l.fluxRange(eNew, e, pres, dt, lo, hi)
				tc.Execute(work(l.parPerChunk * float64(hi-lo) / float64(l.chunk)))
			})
			// Parallel sweep 2: equation of state.
			tc.ParallelFor(l.elems, l.chunk, func(tc *qthreads.TC, lo, hi int) {
				l.eosRange(pNew, eNew, lo, hi)
				tc.Execute(work(l.parPerChunk * float64(hi-lo) / float64(l.chunk)))
			})
			e, eNew = eNew, e
			pres, pNew = pNew, pres
		}
		l.gotE = append([]float64(nil), e...)
	}
}

// Validate compares against the serial reference bitwise and checks
// energy stayed bounded and positive.
func (l *LULESH) Validate() error {
	if l.gotE == nil {
		return fmt.Errorf("lulesh: run did not complete")
	}
	var total float64
	for i := range l.wantE {
		if l.gotE[i] != l.wantE[i] {
			return fmt.Errorf("lulesh: element %d: %g vs %g", i, l.gotE[i], l.wantE[i])
		}
		if math.IsNaN(l.gotE[i]) || l.gotE[i] < 0 {
			return fmt.Errorf("lulesh: element %d unphysical: %g", i, l.gotE[i])
		}
		total += l.gotE[i]
	}
	if total <= 0 {
		return fmt.Errorf("lulesh: blast energy vanished")
	}
	return nil
}

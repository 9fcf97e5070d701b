package workloads

import (
	"math"

	"repro/internal/compiler"
	"repro/internal/machine"
)

// Anchor returns a build's paper-anchored 16-thread seconds — the anchor
// entry's time × the build's TimeFactor × scale — and the node watts the
// paper measured for the build. The anchor is GCC -O2 when the paper
// built the app with GCC, else the app's own compiler at -O2.
func Anchor(app string, t compiler.Target, scale float64) (seconds, watts float64, err error) {
	cg, err := Lookup(app, t)
	if err != nil {
		return 0, 0, err
	}
	anchor := compiler.Baseline
	if !compiler.Supported(app, anchor.Compiler) {
		anchor = compiler.Target{Compiler: t.Compiler, Opt: compiler.O2}
	}
	base, _ := compiler.PaperEntry(app, anchor)
	return base.Seconds * cg.TimeFactor * scale, cg.TargetWatts, nil
}

// ComputeCalib calibrates a compute-bound program: the charged cycles of
// the whole run (every core busy at base frequency for the anchored
// seconds) and the power activity that draws the build's watts.
func ComputeCalib(cfg machine.Config, app string, t compiler.Target, scale float64) (totalCycles, activity float64, err error) {
	seconds, watts, err := Anchor(app, t, scale)
	if err != nil {
		return 0, 0, err
	}
	totalCycles = seconds * float64(cfg.Cores()) * float64(cfg.BaseFreq)
	activity = SolveActivity(cfg, watts, cfg.CoresPerSocket, 0, 0, 1, 0, 0)
	return totalCycles, activity, nil
}

// Knee solves the bandwidth knee of a socket with every core running:
// the per-thread demand at which satShare threads per socket saturate
// the oversubscription-degraded capacity (capped at what one core can
// pull), the bandwidth-limited progress fraction afBW every core then
// makes, and the socket's bandwidth utilization. The demand is a fixed
// point: the capacity falls with the references in flight, which follow
// the demand.
func Knee(cfg machine.Config, satShare float64) (demand, afBW, util float64) {
	mem := cfg.Mem
	coreCap := float64(mem.MaxCoreBandwidth())
	demand = float64(mem.BandwidthPerSocket) / satShare
	var ceff float64
	for i := 0; i < 40; i++ {
		refsPerCore := math.Min(demand/float64(mem.PerRefBandwidth()), float64(mem.MaxRefsPerCore))
		ceff = mem.EffectiveCapacity(refsPerCore * float64(cfg.CoresPerSocket))
		demand = math.Min(ceff/satShare, coreCap)
	}
	afBW = math.Min(ceff/float64(cfg.CoresPerSocket)/demand, 1)
	return demand, afBW, ceff / float64(mem.BandwidthPerSocket)
}

// BWProfile is the calibrated charge model of a bandwidth-knee program.
type BWProfile struct {
	// TotalCycles is the charged compute volume of the whole run.
	TotalCycles float64
	// bytesPerCycle converts charged cycles to memory traffic; activity
	// and overlap shape power draw.
	bytesPerCycle, activity, overlap float64
}

// BandwidthCalib calibrates a bandwidth-knee program: satShare is the
// number of threads per socket at which the socket saturates (half the
// node-wide knee the paper's speedup figures show), overlap the
// compute/memory overlap credit of the algorithm.
func BandwidthCalib(cfg machine.Config, app string, t compiler.Target, scale, satShare, overlap float64) (BWProfile, error) {
	seconds, watts, err := Anchor(app, t, scale)
	if err != nil {
		return BWProfile{}, err
	}
	demand, afBW, util := Knee(cfg, satShare)
	f := float64(cfg.BaseFreq)
	return BWProfile{
		TotalCycles:   seconds * float64(cfg.Cores()) * f * afBW,
		bytesPerCycle: demand / f,
		activity:      SolveActivity(cfg, watts, cfg.CoresPerSocket, 0, 0, afBW, overlap, util),
		overlap:       overlap,
	}, nil
}

// Work builds the machine work item for a slice of the calibrated cycle
// budget.
func (p BWProfile) Work(cycles float64) machine.Work {
	return machine.Work{
		Ops:      cycles,
		Bytes:    cycles * p.bytesPerCycle,
		Activity: p.activity,
		Overlap:  p.overlap,
	}
}

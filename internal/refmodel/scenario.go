package refmodel

import (
	"math/rand"
	"time"

	"repro/internal/machine"
	"repro/internal/units"
)

// ControllerCore is the core every scenario reserves for the controller:
// the goroutine that owns all global operations (DVFS requests, ticker
// registration and removal, worker starts). Serializing those on one
// enrolled core makes a scenario's virtual-time schedule deterministic —
// each global operation happens at the exact virtual instant one of the
// controller's sleeps expires, on both engines.
const ControllerCore = 0

// OpKind enumerates worker-script operations.
type OpKind int

// Worker operations. Execute/Atomic/Sleep/SpinFor are charging calls
// (they consume virtual time); SetDuty is host-side (instantaneous).
const (
	OpExecute OpKind = iota
	OpAtomic
	OpSleep
	OpSpinFor
	OpSetDuty
)

// Op is one step of a worker script.
type Op struct {
	Kind  OpKind
	Work  machine.Work  // OpExecute
	Line  int           // OpAtomic: index into Scenario.Lines
	N     float64       // OpAtomic: operation count
	D     time.Duration // OpSleep / OpSpinFor duration
	Level int           // OpSetDuty: clock-modulation level in [1, 32]
}

// Worker is a scripted workload bound to one core. Cores are unique per
// scenario and never ControllerCore.
type Worker struct {
	Core int
	Ops  []Op
}

// GlobalKind enumerates controller operations.
type GlobalKind int

// Controller operations.
const (
	// GlobalDVFS requests a socket frequency scale.
	GlobalDVFS GlobalKind = iota
	// GlobalAddTicker registers a periodic ticker into a scenario slot.
	GlobalAddTicker
	// GlobalRemoveTicker unregisters the ticker in a scenario slot.
	GlobalRemoveTicker
	// GlobalStartWorker enrolls a worker core and starts its script.
	GlobalStartWorker
)

// GlobalOp is one controller operation, performed at a phase boundary.
type GlobalOp struct {
	Kind   GlobalKind
	Socket int           // GlobalDVFS
	Scale  float64       // GlobalDVFS
	Ticker int           // ticker slot for Add/Remove
	Period time.Duration // GlobalAddTicker
	Worker int           // GlobalStartWorker: index into Scenario.Workers
}

// Phase is one controller step: perform the global operations, then sleep
// (in virtual time) so the machine runs.
type Phase struct {
	Ops   []GlobalOp
	Sleep time.Duration
}

// LineParams describes one contended cache line (machine.NewLine).
type LineParams struct {
	CostCycles float64
	PingPong   float64
	Activity   float64
}

// Scenario is a fully deterministic co-simulation script: the same
// scenario played on the optimized machine engine and interpreted by the
// naive reference engine must produce bit-identical trajectories.
//
// After the last phase the controller removes every still-registered
// ticker and releases its core; workers release their cores when their
// scripts end.
type Scenario struct {
	Seed    int64
	Cfg     machine.Config
	Lines   []LineParams
	Workers []Worker
	Phases  []Phase
	// TickerSlots is the number of scenario-local ticker slots referenced
	// by GlobalAddTicker/GlobalRemoveTicker ops.
	TickerSlots int
	// CounterStart preloads every socket's MSR_PKG_ENERGY_STATUS counter
	// before the run. Seeding it near 2^32 makes the 32-bit wrap happen
	// mid-scenario, so wrap handling is differentially tested too.
	CounterStart uint32
}

// Generate derives a random scenario from a seed. The same seed always
// produces the same scenario. Shapes are kept small enough that a single
// scenario simulates in a few milliseconds of virtual time.
func Generate(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed))
	sc := Scenario{Seed: seed}
	sc.Cfg = generateConfig(rng)
	if rng.Intn(4) == 0 {
		// A few ms of scenario burns on the order of 10^4 RAPL counts;
		// starting this close to 2^32 makes a mid-run wrap likely.
		sc.CounterStart = uint32(units.RAPLCounterMod - uint64(1+rng.Intn(15_000)))
	}

	sc.Lines = generateLines(rng, 1+rng.Intn(3))

	// Worker cores: a random subset of the non-controller cores.
	cores := sc.Cfg.Cores()
	nWorkers := 1 + rng.Intn(cores-1)
	perm := rng.Perm(cores - 1) // values 0..cores-2; +1 skips the controller
	for w := 0; w < nWorkers; w++ {
		sc.Workers = append(sc.Workers, Worker{
			Core: perm[w] + 1,
			Ops:  generateOps(rng, len(sc.Lines)),
		})
	}

	// Phases: distribute worker starts, DVFS flips and ticker churn.
	nPhases := 1 + rng.Intn(4)
	sc.Phases = make([]Phase, nPhases)
	for w := range sc.Workers {
		p := rng.Intn(nPhases)
		sc.Phases[p].Ops = append(sc.Phases[p].Ops, GlobalOp{Kind: GlobalStartWorker, Worker: w})
	}
	sc.TickerSlots = rng.Intn(3)
	sc.churnTickers(rng, 50*time.Microsecond, time.Millisecond)
	sc.flipDVFSAndSleep(rng, 50*time.Microsecond, 2*time.Millisecond)
	return sc
}

// generateLines draws n contended cache lines.
func generateLines(rng *rand.Rand, n int) []LineParams {
	lines := make([]LineParams, n)
	for i := range lines {
		lines[i] = LineParams{
			CostCycles: 80 + rng.Float64()*400,
			PingPong:   rng.Float64() * 0.8,
			Activity:   0.3 + rng.Float64()*0.65,
		}
	}
	return lines
}

// churnTickers registers every ticker slot in a random phase, with a
// period in [min, min+spread), and sometimes removes it in a strictly
// later phase; otherwise the end-of-run cleanup removes it.
func (sc *Scenario) churnTickers(rng *rand.Rand, min, spread time.Duration) {
	nPhases := len(sc.Phases)
	for slot := 0; slot < sc.TickerSlots; slot++ {
		add := rng.Intn(nPhases)
		sc.Phases[add].Ops = append(sc.Phases[add].Ops, GlobalOp{
			Kind:   GlobalAddTicker,
			Ticker: slot,
			Period: min + time.Duration(rng.Int63n(int64(spread))),
		})
		if add+1 < nPhases && rng.Intn(2) == 0 {
			rem := add + 1 + rng.Intn(nPhases-add-1)
			sc.Phases[rem].Ops = append(sc.Phases[rem].Ops, GlobalOp{Kind: GlobalRemoveTicker, Ticker: slot})
		}
	}
}

// flipDVFSAndSleep gives every phase up to two DVFS requests and its
// sleep, in [min, min+spread).
func (sc *Scenario) flipDVFSAndSleep(rng *rand.Rand, min, spread time.Duration) {
	for p := range sc.Phases {
		for i, n := 0, rng.Intn(3); i < n; i++ {
			sc.Phases[p].Ops = append(sc.Phases[p].Ops, GlobalOp{
				Kind:   GlobalDVFS,
				Socket: rng.Intn(sc.Cfg.Sockets),
				Scale:  machine.MinFrequencyScale + rng.Float64()*(1-machine.MinFrequencyScale),
			})
		}
		sc.Phases[p].Sleep = min + time.Duration(rng.Int63n(int64(spread)))
	}
}

// generateConfig varies the node topology and the model knobs that gate
// distinct engine code paths: Turbo on/off, memory-subsystem shape, and a
// thermal time constant short enough that temperatures (and therefore
// leakage and the MSR therm-flush path) move within a run.
func generateConfig(rng *rand.Rand) machine.Config {
	cfg := machine.M620()
	cfg.Sockets = 1 + rng.Intn(2)
	cfg.CoresPerSocket = 2 + rng.Intn(3)
	cfg.MaxStep = time.Millisecond
	cfg.IdlePace = -1 // never host-pace: scenarios are deadline-driven
	cfg.VirtualTimeLimit = 10 * time.Minute
	if rng.Intn(2) == 0 {
		cfg.Turbo = machine.DefaultTurbo()
	}
	if rng.Intn(2) == 0 {
		cfg.Mem.BandwidthPerSocket = 17e9
		cfg.Mem.KneeRefs = 14
	}
	if rng.Intn(3) == 0 {
		cfg.Mem.MaxRefsPerCore = 4
	}
	if rng.Intn(4) == 0 {
		cfg.Mem.OversubPenalty = 0
	}
	cfg.Thermal.TimeConstant = time.Duration(5+rng.Intn(95)) * time.Millisecond
	return cfg
}

// generateOps builds one worker script. Work sizes are chosen so items
// span a handful of engine steps at the 1 ms MaxStep.
func generateOps(rng *rand.Rand, nLines int) []Op {
	n := 1 + rng.Intn(6)
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		switch r := rng.Float64(); {
		case r < 0.40:
			w := machine.Work{Ops: (0.2 + rng.Float64()*3) * 1e6}
			switch rng.Intn(3) {
			case 0: // compute only
			case 1: // mixed compute + memory
				w.Bytes = w.Ops * rng.Float64() * 8
				w.Overlap = rng.Float64()
				w.Activity = 0.3 + rng.Float64()*0.7
			default: // pure stream
				w.Ops = 0
				w.Bytes = 1e5 + rng.Float64()*5e6
			}
			ops = append(ops, Op{Kind: OpExecute, Work: w})
		case r < 0.60:
			ops = append(ops, Op{
				Kind: OpAtomic,
				Line: rng.Intn(nLines),
				N:    100 + rng.Float64()*3000,
			})
		case r < 0.75:
			ops = append(ops, Op{Kind: OpSleep, D: 20*time.Microsecond + time.Duration(rng.Int63n(int64(1500*time.Microsecond)))})
		case r < 0.85:
			ops = append(ops, Op{Kind: OpSpinFor, D: 20*time.Microsecond + time.Duration(rng.Int63n(int64(1500*time.Microsecond)))})
		default:
			ops = append(ops, Op{Kind: OpSetDuty, Level: 1 + rng.Intn(32)})
		}
	}
	return ops
}

// GenerateLongStretch derives a scenario of the shape Generate never
// draws: work items spanning 20–200 MaxStep quanta on 1–15 worker cores,
// so the engine takes long runs of steps in which no core changes state
// and its plan is reused, with sparse events landing in the middle of
// those runs — DVFS requests, a neighbour changing its duty cycle, ticker
// registration and removal, a worker starting, a sleeper's deadline, a
// spinner, and cores joining or leaving an atomic line group. The same
// seed always produces the same scenario; one scenario simulates a few
// hundred milliseconds of virtual time.
func GenerateLongStretch(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed))
	sc := Scenario{Seed: seed}
	sc.Cfg = generateConfig(rng)
	sc.Cfg.CoresPerSocket = 2 + rng.Intn(7) // up to 2×8 cores
	// Slow enough to outlast a stretch, fast enough that leakage moves
	// (and the therm registers flush) inside one.
	sc.Cfg.Thermal.TimeConstant = time.Duration(20+rng.Intn(480)) * time.Millisecond
	if rng.Intn(4) == 0 {
		// A few hundred ms burn on the order of 10^6 RAPL counts.
		sc.CounterStart = uint32(units.RAPLCounterMod - uint64(1+rng.Intn(1_500_000)))
	}

	sc.Lines = generateLines(rng, 1+rng.Intn(2))

	// Workers: the first is always a hauler (long items); the rest are
	// haulers or visitors (sparse short events) with equal odds.
	cores := sc.Cfg.Cores()
	nWorkers := 1 + rng.Intn(cores-1)
	perm := rng.Perm(cores - 1)
	for w := 0; w < nWorkers; w++ {
		var ops []Op
		if w == 0 || rng.Intn(2) == 0 {
			ops = generateHaul(rng, sc.Cfg)
		} else {
			ops = generateVisits(rng, sc.Cfg, sc.Lines)
		}
		sc.Workers = append(sc.Workers, Worker{Core: perm[w] + 1, Ops: ops})
	}

	// Phases tens of milliseconds apart, so everything after the first
	// lands mid-stretch. The first hauler starts at once.
	nPhases := 2 + rng.Intn(4)
	sc.Phases = make([]Phase, nPhases)
	for w := range sc.Workers {
		p := 0
		if w > 0 {
			p = rng.Intn(nPhases)
		}
		sc.Phases[p].Ops = append(sc.Phases[p].Ops, GlobalOp{Kind: GlobalStartWorker, Worker: w})
	}
	sc.TickerSlots = 1 + rng.Intn(2)
	sc.churnTickers(rng, 300*time.Microsecond, 20*time.Millisecond)
	sc.flipDVFSAndSleep(rng, 5*time.Millisecond, 55*time.Millisecond)
	return sc
}

// generateHaul builds a hauler script: one or two work items of 20–200
// MaxStep quanta each at nominal speed, sometimes at a reduced (but not
// crawling) duty cycle.
func generateHaul(rng *rand.Rand, cfg machine.Config) []Op {
	var ops []Op
	for i, n := 0, 1+rng.Intn(2); i < n; i++ {
		if rng.Intn(4) == 0 {
			ops = append(ops, Op{Kind: OpSetDuty, Level: 8 + rng.Intn(25)})
		}
		secs := (20 + rng.Float64()*180) * cfg.MaxStep.Seconds()
		w := machine.Work{Ops: secs * float64(cfg.BaseFreq)}
		switch rng.Intn(3) {
		case 0: // compute only
		case 1: // mixed compute + memory
			w.Bytes = w.Ops * rng.Float64() * 8
			w.Overlap = rng.Float64()
			w.Activity = 0.3 + rng.Float64()*0.7
		default: // pure stream at the per-core cap
			w.Ops = 0
			w.Bytes = secs * float64(cfg.Mem.MaxCoreBandwidth())
		}
		ops = append(ops, Op{Kind: OpExecute, Work: w})
	}
	return ops
}

// generateVisits builds a visitor script: a handful of short events a
// few milliseconds apart, each of which changes some core's state while
// the haulers are mid-item.
func generateVisits(rng *rand.Rand, cfg machine.Config, lines []LineParams) []Op {
	ms := func(lo, hi int) time.Duration {
		return time.Duration(lo)*time.Millisecond + time.Duration(rng.Int63n(int64(time.Duration(hi-lo)*time.Millisecond)))
	}
	var ops []Op
	for i, n := 0, 2+rng.Intn(5); i < n; i++ {
		switch r := rng.Float64(); {
		case r < 0.30:
			ops = append(ops, Op{Kind: OpSleep, D: ms(3, 40)})
		case r < 0.45:
			ops = append(ops, Op{Kind: OpSpinFor, D: ms(1, 10)})
		case r < 0.70:
			// 1–30 ms of uncontended service on the line.
			li := rng.Intn(len(lines))
			ops = append(ops, Op{
				Kind: OpAtomic,
				Line: li,
				N:    ms(1, 30).Seconds() * float64(cfg.BaseFreq) / lines[li].CostCycles,
			})
		case r < 0.85:
			ops = append(ops, Op{Kind: OpSetDuty, Level: 1 + rng.Intn(32)},
				Op{Kind: OpSleep, D: ms(1, 10)})
		default:
			ops = append(ops, Op{Kind: OpExecute, Work: machine.Work{
				Ops:   (0.2 + rng.Float64()*3) * 1e6,
				Bytes: rng.Float64() * 4e6,
			}})
		}
	}
	return ops
}

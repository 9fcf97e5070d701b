package bots

import (
	"fmt"
	"math/bits"
	"math/rand/v2"

	"repro/internal/compiler"
	"repro/internal/qthreads"
	"repro/internal/workloads"
)

// Health is the BOTS health-system simulation: a tree of villages, each
// with a patient population evolving over timesteps; every timestep a
// task per village processes arrivals, illness, treatment and referrals
// to the parent village. Referrals travel through per-village outboxes
// consumed one timestep later, so the simulation is deterministic under
// any schedule. It is memory-bound with partial overlap and saturates at
// ~6.7 effective threads (paper Figures 3/4), which together with its
// high power makes it one of the four throttling candidates (Table VI).
type Health struct {
	p workloads.Params

	villages []*village
	root     int
	steps    int
	want     healthTotals
	got      healthTotals
	ran      bool

	prof    workloads.BWProfile
	perTask float64
}

// healthTotals are the answer-checked aggregate counters.
type healthTotals struct {
	Treated  int64
	Referred int64
	Sick     int64
}

type village struct {
	id       int
	parent   int // -1 for root
	children []int
	level    int

	// Simulation state (reset per run).
	patients int64
	sick     int64
	inbox    int64 // referrals arriving this step
	outbox   int64 // referrals leaving for the parent next step
	treated  int64
	referred int64
}

// Health tree shape: buildTree branches while level < healthLevels, so
// the root plus 4 levels of branching 4 is 341 villages, and 26 steps
// give 8,866 village tasks a run — the count Table VI and the 6.7× knee
// are calibrated on. Mechanism constants per DESIGN.md: the socket
// saturates at ~3.35 village-processing threads and overlaps about half
// of its stalls.
//
// Every (village, step) draws from a private stream seeded from (Seed,
// village, step): that is what makes the totals independent of the
// schedule and lets the serial reference replay the identical draws. It
// also means a stream is seeded 8,866 times a run and as often again
// for the reference, so the generator must cost nothing to seed — a PCG
// value on the stack, not math/rand's 607-word lagged-Fibonacci source.
const (
	healthLevels   = 4
	healthBranch   = 4
	healthSteps    = 26
	healthSatShare = 3.35
	healthOverlap  = 0.48
)

// NewHealth creates the workload.
func NewHealth() *Health { return &Health{} }

// Name returns the canonical app name.
func (h *Health) Name() string { return compiler.AppHealth }

// Prepare builds the village tree, runs the serial reference, and
// calibrates charges.
func (h *Health) Prepare(p workloads.Params) error {
	p = p.WithDefaults()
	prof, err := workloads.BandwidthCalib(p.MachineConfig, h.Name(), p.Target, p.Scale, healthSatShare, healthOverlap)
	if err != nil {
		return err
	}
	h.p = p
	h.villages = h.villages[:0]
	h.root = h.buildTree(-1, 0)
	h.steps = healthSteps
	h.prof = prof
	h.perTask = prof.TotalCycles / float64(h.steps*len(h.villages))

	// Serial reference with the identical per-(village, step) RNG
	// streams.
	h.resetState()
	for s := 0; s < h.steps; s++ {
		for _, v := range h.villages {
			h.stepVillage(v, s)
		}
		h.deliverOutboxes()
	}
	h.want = h.totals()
	h.ran = false
	return nil
}

// buildTree creates the village tree depth-first and returns the root id.
func (h *Health) buildTree(parent, level int) int {
	v := &village{id: len(h.villages), parent: parent, level: level}
	h.villages = append(h.villages, v)
	id := v.id
	if level < healthLevels {
		for c := 0; c < healthBranch; c++ {
			child := h.buildTree(id, level+1)
			h.villages[id].children = append(h.villages[id].children, child)
		}
	}
	return id
}

// resetState reinitializes the simulation state.
func (h *Health) resetState() {
	for _, v := range h.villages {
		v.patients = int64(20 + 10*v.level)
		v.sick = 0
		v.inbox, v.outbox = 0, 0
		v.treated, v.referred = 0, 0
	}
}

// below draws from [0, n) by multiply-shift. Its bias is under n/2⁶⁴,
// and the simulation needs the draws repeatable, not exactly uniform.
func below(rng *rand.PCG, n uint64) uint64 {
	hi, _ := bits.Mul64(rng.Uint64(), n)
	return hi
}

// stepVillage advances one village by one timestep using its private,
// schedule-independent RNG stream.
func (h *Health) stepVillage(v *village, step int) {
	var rng rand.PCG
	rng.Seed(uint64(h.p.Seed), uint64(v.id)<<32|uint64(step))
	v.patients += v.inbox
	v.inbox = 0
	// New illness among the population.
	newSick := int64(below(&rng, uint64(v.patients/4+1)))
	v.sick += newSick
	// Treat some; refer the hard cases up the hierarchy.
	for i := int64(0); i < v.sick; i++ {
		switch below(&rng, 10) {
		case 0, 1, 2, 3, 4, 5:
			v.treated++
			v.sick--
			i--
		case 6:
			if v.parent >= 0 {
				v.referred++
				v.outbox++
				v.sick--
				i--
			}
		default:
			// Still sick next step.
		}
		if v.sick <= 0 {
			break
		}
	}
}

// deliverOutboxes moves referrals into parents' inboxes (between steps,
// single-threaded).
func (h *Health) deliverOutboxes() {
	for _, v := range h.villages {
		if v.parent >= 0 && v.outbox > 0 {
			h.villages[v.parent].inbox += v.outbox
			v.outbox = 0
		}
	}
}

func (h *Health) totals() healthTotals {
	var t healthTotals
	for _, v := range h.villages {
		t.Treated += v.treated
		t.Referred += v.referred
		t.Sick += v.sick
	}
	return t
}

// Root returns the benchmark body: per timestep, a task tree over the
// villages (BOTS' sim_village recursion), then a serial outbox exchange.
func (h *Health) Root() qthreads.Task {
	return func(tc *qthreads.TC) {
		h.resetState()
		for s := 0; s < h.steps; s++ {
			s := s
			h.simVillage(tc, h.root, s)
			tc.Sync()
			h.deliverOutboxes()
			tc.Compute(20_000) // serial exchange between steps
		}
		h.got = h.totals()
		h.ran = true
	}
}

// simVillage spawns tasks for the subtree, then simulates this village.
func (h *Health) simVillage(tc *qthreads.TC, id, step int) {
	v := h.villages[id]
	for _, c := range v.children {
		c := c
		tc.Spawn(func(tc *qthreads.TC) { h.simVillage(tc, c, step) })
	}
	h.stepVillage(v, step)
	tc.Execute(h.prof.Work(h.perTask))
	tc.Sync()
}

// Validate compares run totals against the serial reference.
func (h *Health) Validate() error {
	if !h.ran {
		return fmt.Errorf("health: run did not complete")
	}
	if h.got != h.want {
		return fmt.Errorf("health: totals %+v, want %+v", h.got, h.want)
	}
	return nil
}

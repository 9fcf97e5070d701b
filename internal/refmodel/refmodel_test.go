package refmodel

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/machine"
)

func TestGenerateIsDeterministic(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		a, b := Generate(seed), Generate(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two Generate calls disagree", seed)
		}
	}
}

func TestGeneratedScenariosAreWellFormed(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		sc := Generate(seed)
		if err := sc.Cfg.Validate(); err != nil {
			t.Fatalf("seed %d: invalid config: %v", seed, err)
		}
		used := map[int]bool{ControllerCore: true}
		for _, w := range sc.Workers {
			if used[w.Core] {
				t.Fatalf("seed %d: core %d used twice (or is the controller)", seed, w.Core)
			}
			used[w.Core] = true
			if w.Core < 0 || w.Core >= sc.Cfg.Cores() {
				t.Fatalf("seed %d: worker core %d out of range", seed, w.Core)
			}
			for _, op := range w.Ops {
				if op.Kind == OpAtomic && (op.Line < 0 || op.Line >= len(sc.Lines)) {
					t.Fatalf("seed %d: atomic op references line %d of %d", seed, op.Line, len(sc.Lines))
				}
			}
		}
		started := map[int]bool{}
		for _, ph := range sc.Phases {
			for _, op := range ph.Ops {
				switch op.Kind {
				case GlobalStartWorker:
					if started[op.Worker] {
						t.Fatalf("seed %d: worker %d started twice", seed, op.Worker)
					}
					started[op.Worker] = true
				case GlobalAddTicker, GlobalRemoveTicker:
					if op.Ticker < 0 || op.Ticker >= sc.TickerSlots {
						t.Fatalf("seed %d: ticker slot %d of %d", seed, op.Ticker, sc.TickerSlots)
					}
				case GlobalDVFS:
					if op.Socket < 0 || op.Socket >= sc.Cfg.Sockets {
						t.Fatalf("seed %d: DVFS socket %d of %d", seed, op.Socket, sc.Cfg.Sockets)
					}
				}
			}
			if ph.Sleep <= 0 {
				t.Fatalf("seed %d: non-positive phase sleep %v", seed, ph.Sleep)
			}
		}
		if len(started) != len(sc.Workers) {
			t.Fatalf("seed %d: %d of %d workers ever started", seed, len(started), len(sc.Workers))
		}
	}
}

// TestWaterFillProperties checks the reference allocator against the
// allocation properties the engine's max-min fair allocator guarantees.
func TestWaterFillProperties(t *testing.T) {
	cases := []struct {
		demands  []float64
		capacity float64
	}{
		{nil, 10},
		{[]float64{5}, 10},
		{[]float64{5, 5}, 10},
		{[]float64{8, 8}, 10},
		{[]float64{1, 100}, 10},
		{[]float64{2, 3, 100, 100}, 20},
		{[]float64{0, 4, 0, 4}, 6},
		{[]float64{3, 3, 3}, 0},
	}
	for _, tc := range cases {
		grants := waterFill(tc.demands, tc.capacity)
		total, demandTotal := 0.0, 0.0
		for i, g := range grants {
			if g < 0 || g > tc.demands[i]+1e-9 {
				t.Fatalf("demands=%v cap=%v: grant[%d]=%v exceeds demand", tc.demands, tc.capacity, i, g)
			}
			total += g
			demandTotal += tc.demands[i]
		}
		if total > tc.capacity+1e-9 {
			t.Fatalf("demands=%v cap=%v: grants total %v exceeds capacity", tc.demands, tc.capacity, total)
		}
		if demandTotal <= tc.capacity {
			for i, g := range grants {
				if g != tc.demands[i] {
					t.Fatalf("demands=%v cap=%v: under-subscribed but grant[%d]=%v", tc.demands, tc.capacity, i, g)
				}
			}
		}
		// Max-min fairness: every unsatisfied flow gets at least as much
		// as any other flow's grant (no one starves while another feasts).
		for i, g := range grants {
			if g >= tc.demands[i]-1e-12 {
				continue // satisfied
			}
			for j, h := range grants {
				if h > g+1e-9 {
					t.Fatalf("demands=%v cap=%v: unsatisfied flow %d got %v while flow %d got %v",
						tc.demands, tc.capacity, i, g, j, h)
				}
			}
		}
	}
}

// richSeed finds a scenario with enough steps (and, when wantTicker is
// set, at least one ticker fire) for corruption tests to have targets.
func richSeed(t *testing.T, minSteps int, wantTicker bool) (Scenario, *Result) {
	t.Helper()
	for seed := int64(0); seed < 500; seed++ {
		sc := Generate(seed)
		res, err := Run(sc)
		if err != nil {
			t.Fatalf("seed %d: reference run failed: %v", seed, err)
		}
		if len(res.Steps) < minSteps {
			continue
		}
		if wantTicker {
			fired := false
			for _, fs := range res.Tickers {
				fired = fired || len(fs) > 0
			}
			if !fired {
				continue
			}
		}
		if err := Audit(sc, res); err != nil {
			t.Fatalf("seed %d: clean trajectory failed audit: %v", seed, err)
		}
		return sc, res
	}
	t.Fatal("no seed in 0..499 produced a rich enough scenario")
	return Scenario{}, nil
}

func deepCopy(res *Result) *Result {
	cp := &Result{
		Steps:    append([]machine.StepRecord{}, res.Steps...),
		Energy:   append([]float64{}, res.Energy...),
		Counters: append([]uint32{}, res.Counters...),
		Order:    append([]int{}, res.Order...),
	}
	for i := range cp.Steps {
		cp.Steps[i].Sockets = append(cp.Steps[i].Sockets[:0:0], res.Steps[i].Sockets...)
	}
	for _, fs := range res.Tickers {
		fsc := make([]TickerFire, len(fs))
		for i, f := range fs {
			fsc[i] = TickerFire{Now: f.Now, Sockets: append(f.Sockets[:0:0], f.Sockets...)}
		}
		cp.Tickers = append(cp.Tickers, fsc)
	}
	return cp
}

// TestAuditCatchesCorruption corrupts a clean trajectory one invariant
// at a time and checks the auditor rejects every mutation.
func TestAuditCatchesCorruption(t *testing.T) {
	sc, clean := richSeed(t, 3, false)
	mutations := []struct {
		name   string
		mutate func(r *Result)
	}{
		{"energy leak", func(r *Result) { r.Steps[1].Sockets[0].Energy *= 1.5 }},
		{"negative dt", func(r *Result) { r.Steps[2].Dt = -r.Steps[2].Dt }},
		{"time gap", func(r *Result) { r.Steps[2].Now += time.Nanosecond }},
		{"util overflow", func(r *Result) { r.Steps[1].Sockets[0].Util = 1.5 }},
		{"refs overflow", func(r *Result) { r.Steps[1].Sockets[0].Refs = 1e9 }},
		{"nan temperature", func(r *Result) { r.Steps[1].Sockets[0].Temperature = math.NaN() }},
		{"subambient temperature", func(r *Result) {
			r.Steps[1].Sockets[0].Temperature = float64(sc.Cfg.Thermal.Ambient) - 5
		}},
		{"counter jump", func(r *Result) { r.Steps[1].Sockets[0].RAPLCounter += 100000 }},
		{"counter backwards", func(r *Result) { r.Steps[1].Sockets[0].RAPLCounter -= 50000 }},
		{"freq scale underflow", func(r *Result) { r.Steps[1].Sockets[0].FreqScale = 0.1 }},
		{"final energy mismatch", func(r *Result) { r.Energy[0] += 1 }},
		{"final counter mismatch", func(r *Result) { r.Counters[0]++ }},
	}
	for _, m := range mutations {
		cp := deepCopy(clean)
		m.mutate(cp)
		if err := Audit(sc, cp); err == nil {
			t.Errorf("mutation %q passed the audit", m.name)
		}
	}
}

// TestCompareCatchesDivergence flips single values in a copied
// trajectory and checks the bit-exact comparator sees every one.
func TestCompareCatchesDivergence(t *testing.T) {
	_, clean := richSeed(t, 2, true)
	var tickSlot, tickFire = -1, -1
	for slot, fs := range clean.Tickers {
		if len(fs) > 0 {
			tickSlot, tickFire = slot, 0
			break
		}
	}
	mutations := []struct {
		name   string
		mutate func(r *Result)
		want   bool
	}{
		{"identical", func(r *Result) {}, false},
		{"one ulp of energy", func(r *Result) {
			s := &r.Steps[0].Sockets[0]
			s.Energy = math.Float64frombits(math.Float64bits(s.Energy) + 1)
		}, true},
		{"step dropped", func(r *Result) { r.Steps = r.Steps[:len(r.Steps)-1] }, true},
		{"dt shifted", func(r *Result) { r.Steps[0].Dt += time.Nanosecond }, true},
		{"bandwidth", func(r *Result) { r.Steps[0].Sockets[0].Bandwidth += 1 }, true},
	}
	if tickSlot >= 0 {
		mutations = append(mutations,
			struct {
				name   string
				mutate func(r *Result)
				want   bool
			}{"ticker fire power", func(r *Result) { r.Tickers[tickSlot][tickFire].Sockets[0].Power += 1e-9 }, true},
			struct {
				name   string
				mutate func(r *Result)
				want   bool
			}{"ticker fire dropped", func(r *Result) { r.Tickers[tickSlot] = r.Tickers[tickSlot][:0] }, true},
			struct {
				name   string
				mutate func(r *Result)
				want   bool
			}{"ticker fire order", func(r *Result) { r.Order[0]++ }, true},
		)
	}
	for _, m := range mutations {
		cp := deepCopy(clean)
		m.mutate(cp)
		err := Compare(clean, cp)
		if got := err != nil; got != m.want {
			t.Errorf("mutation %q: Compare error = %v, want error %v", m.name, err, m.want)
		}
	}
}

// TestDifferentialSmoke keeps a quick in-package differential; the full
// 1000-scenario sweep lives in internal/machine's differential tests.
func TestDifferentialSmoke(t *testing.T) {
	for seed := int64(0); seed < 32; seed++ {
		if err := Differential(Generate(seed)); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

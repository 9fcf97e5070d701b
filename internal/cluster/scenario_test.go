package cluster

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// knownFindings pins every corpus seed that does not pass, by tier, to
// the one violation it reports (docs/robustness.md §Known liveness
// findings has the mechanisms). A run is a pure function of its seed,
// so this is exact: a listed seed that passes, or fails any other way,
// fails the corpus until the table is corrected — it flips when the
// finding is fixed. None is a safety violation: in each the takeover
// collides with two or more WAN windows (the successor's writes, held
// by a split-brain window, land late and grant a lease nobody renews),
// or — the "decommissioned" ones — operator power-offs in a leaderless
// window cost the election quorum until the settle phase, so no
// departure the schedule asked for ever had a committed member to
// remove. The parent's host-time runner measured 4.1–4.9× TTL on the
// same churn seeds and passed them under the 6× bound, now 4×.
var knownFindings = map[string]map[int]string{
	"ha": {1690: "hand-off median"},
	"churn": {
		383: "hand-off median", 435: "hand-off median", 659: "hand-off median", 1019: "hand-off median",
		1603: "hand-off median", 2022: "hand-off median",
		825: "no member was ever decommissioned", 1538: "no member was ever decommissioned",
	},
}

// runSoakCorpus fans seeds 0..runs-1 of one scenario shape across
// GOMAXPROCS workers — 2,048 seeds, 256 under -short, the same with and
// without -race — and hands every report to fold (serialized). A run is
// a pure function of its seed, so a failing seed is a finding, never
// noise: unless knownFindings pins exactly that failure, its violations
// fail the test and the log carries the command that replays that seed
// alone.
func runSoakCorpus(t *testing.T, tier string, fold func(rep *ScenarioReport)) (runs int) {
	t.Helper()
	runs = 2048
	if testing.Short() {
		runs = 256
	}
	var (
		mu     sync.Mutex
		seedCh = make(chan int)
		wg     sync.WaitGroup
	)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := range seedCh {
				cfg := soakShape(tier)
				cfg.Seed = uint64(seed)
				rep, err := RunScenario(cfg)
				known := knownFindings[tier][seed]
				mu.Lock()
				switch {
				case err != nil:
					t.Errorf("seed %d: %v", seed, err)
				case known != "" && len(rep.Violations) == 1 && strings.Contains(rep.Violations[0], known):
					fold(rep)
				case known != "":
					t.Errorf("seed %d is pinned in knownFindings as %q but reports %q: if it is fixed, drop it from the table", seed, known, rep.Violations)
				case !rep.Passed():
					for _, v := range rep.Violations {
						t.Errorf("seed %d: %s", seed, v)
					}
					short := ""
					if testing.Short() {
						short = " -short"
					}
					t.Logf("seed %d: %s\nreplay: go test ./internal/cluster -v%s -run 'TestScenarioSeed/%s/%d$'", seed, rep.Summary(), short, tier, seed)
				default:
					fold(rep)
				}
				mu.Unlock()
			}
		}()
	}
	for seed := 0; seed < runs; seed++ {
		seedCh <- seed
	}
	close(seedCh)
	wg.Wait()
	return runs
}

// The three tier shapes the corpora run.
var (
	plainShape = Scenario{Shards: 8, Budget: 400 * time.Millisecond}
	haShape    = Scenario{Shards: 8, Replicas: 2, Budget: 400 * time.Millisecond}
	churnShape = Scenario{Shards: 4, Peak: 10, Replicas: 2, Budget: 500 * time.Millisecond}
	soakTiers  = []string{"plain", "ha", "churn"}
)

// soakShape returns a tier's corpus shape as this test binary runs it:
// -short widens the plain fleet to 16 shards, because it skips N=64.
func soakShape(tier string) Scenario {
	switch tier {
	case "ha":
		return haShape
	case "churn":
		return churnShape
	}
	shape := plainShape
	if testing.Short() {
		shape.Shards = 16
	}
	return shape
}

// TestScenarioSeed replays one seed of one corpus shape alone, with its
// summary and whole journal in the log — the command a failing corpus
// seed prints:
//
//	go test ./internal/cluster -v -run 'TestScenarioSeed/ha/1234$'
//
// The shape and seed are read off the -run pattern (subtests must exist
// to be selected, and 3 × 2⁶⁴ of them cannot); run without one, it
// replays seed 0 of each shape.
func TestScenarioSeed(t *testing.T) {
	picked := regexp.MustCompile(`TestScenarioSeed/(\w+)/(\d+)`).FindStringSubmatch(flag.Lookup("test.run").Value.String())
	for _, tier := range soakTiers {
		cfg := soakShape(tier)
		if picked != nil {
			if picked[1] != tier {
				continue
			}
			cfg.Seed, _ = strconv.ParseUint(picked[2], 10, 64) // \d+ parses; out of range saturates
		}
		t.Run(fmt.Sprintf("%s/%d", tier, cfg.Seed), func(t *testing.T) {
			r, err := runScenario(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range r.rep.Violations {
				t.Errorf("violation: %s", v)
			}
			var journal strings.Builder
			_ = r.journal.WriteJSONL(&journal)
			t.Logf("%s\n%s", r.rep.Summary(), journal.String())
		})
	}
}

// TestScenarioReplay: a run is a pure function of its Scenario. Seeds
// 0–31 of each corpus shape run twice at GOMAXPROCS 1 and twice at the
// default; all four reports must be deeply equal — every counter, every
// hand-off duration, and the digest of the journal's JSONL bytes.
func TestScenarioReplay(t *testing.T) {
	seeds := uint64(32)
	if testing.Short() {
		seeds = 8
	}
	for _, tier := range soakTiers {
		shape := soakShape(tier)
		for seed := uint64(0); seed < seeds; seed++ {
			shape.Seed = seed
			var first *ScenarioReport
			for _, procs := range []int{1, 1, 0, 0} {
				prev := runtime.GOMAXPROCS(procs) // 0 only reads
				rep, err := RunScenario(shape)
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatalf("%s seed %d: %v", tier, seed, err)
				}
				if rep.JournalDigest == "" {
					t.Fatalf("%s seed %d: report carries no journal digest", tier, seed)
				}
				if first == nil {
					first = rep
				} else if !reflect.DeepEqual(first, rep) {
					t.Fatalf("%s seed %d diverged between runs (GOMAXPROCS %d):\n%+v\n%+v", tier, seed, procs, first, rep)
				}
			}
		}
	}
}

// TestControlCoreImports holds the core to its contract by parsing it:
// core.go and ha.go may import only what a pure step function needs,
// and may not start a goroutine or read the host clock.
func TestControlCoreImports(t *testing.T) {
	allowed := map[string]bool{
		`"errors"`: true, `"fmt"`: true, `"slices"`: true, `"time"`: true,
		`"repro/internal/rcr"`: true, `"repro/internal/telemetry"`: true, `"repro/internal/units"`: true,
	}
	for _, file := range []string{"core.go", "ha.go"} {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if !allowed[imp.Path.Value] {
				t.Errorf("%s imports %s: the control core takes no lock, opens nothing and owns no goroutine", file, imp.Path.Value)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				t.Errorf("%s has a go statement", file)
			case *ast.SelectorExpr:
				if pkg, ok := n.X.(*ast.Ident); ok && pkg.Name == "time" && strings.Contains(" Now Since Sleep After AfterFunc Tick NewTicker NewTimer ", " "+n.Sel.Name+" ") {
					t.Errorf("%s calls time.%s: the core reads time only through cfg.Clock", file, n.Sel.Name)
				}
			}
			return true
		})
	}
}

// TestScenarioPlanEquivalence pins what the runner plans for seeds 0–7
// of each tier shape to the values the three copy-grown harnesses it
// replaced (plain, HA and churn, at commit 79e5fef) reported for the
// same seeds: event counts per tier, the instant the last fault clears,
// the shard pool and the replayed final fleet. A seed therefore drives
// the same fleet, WAN and membership schedules as before.
func TestScenarioPlanEquivalence(t *testing.T) {
	type want struct {
		events, wan, mem int
		clear            time.Duration
		pool             int
		final            []int
	}
	for _, tier := range []struct {
		name  string
		shape Scenario
		want  [8]want
	}{
		{"plain", plainShape, [8]want{
			{6, 0, 0, 224360218, 8, nil},
			{4, 0, 0, 165812795, 8, nil},
			{5, 0, 0, 92201895, 8, nil},
			{4, 0, 0, 242998607, 8, nil},
			{5, 0, 0, 243918125, 8, nil},
			{5, 0, 0, 200186663, 8, nil},
			{3, 0, 0, 175004662, 8, nil},
			{6, 0, 0, 220742970, 8, nil},
		}},
		{"ha", haShape, [8]want{
			{6, 6, 0, 224360218, 8, nil},
			{4, 7, 0, 165812795, 8, nil},
			{5, 5, 0, 199229927, 8, nil},
			{4, 7, 0, 242998607, 8, nil},
			{5, 5, 0, 243918125, 8, nil},
			{5, 4, 0, 205950733, 8, nil},
			{3, 4, 0, 196000410, 8, nil},
			{6, 5, 0, 228984582, 8, nil},
		}},
		{"churn", churnShape, [8]want{
			{0, 6, 12, 248386883, 10, []int{0, 3, 4, 5, 6, 8}},
			{0, 7, 15, 269384681, 12, []int{0, 3, 4, 8, 9}},
			{0, 5, 14, 303531425, 12, []int{0, 2, 3, 4, 6}},
			{0, 7, 15, 287788861, 12, []int{1, 2, 4, 9}},
			{0, 5, 14, 250570271, 12, []int{0, 3, 6, 7}},
			{0, 4, 13, 257580107, 11, []int{2, 5, 6, 7}},
			{0, 4, 12, 273231085, 10, []int{0, 1, 2, 4, 5, 7}},
			{0, 5, 18, 281668608, 13, []int{3, 7, 8, 12}},
		}},
	} {
		for seed, w := range tier.want {
			cfg := tier.shape
			cfg.Seed = uint64(seed)
			p, err := planScenario(cfg)
			if err != nil {
				t.Fatalf("%s seed %d: %v", tier.name, seed, err)
			}
			got := want{len(p.fleet.Events), len(p.wan.Events), len(p.members.Events), p.clear, p.pool, p.final}
			if !reflect.DeepEqual(got, w) {
				t.Errorf("%s seed %d: planned %+v, the replaced harness ran %+v", tier.name, seed, got, w)
			}
		}
	}
}

// TestScenarioPlanDeterministic: planning the same scenario twice
// yields identical schedules — a failing seed replays the same faults.
func TestScenarioPlanDeterministic(t *testing.T) {
	for _, shape := range []Scenario{plainShape, haShape, churnShape} {
		for seed := uint64(0); seed < 32; seed++ {
			shape.Seed = seed
			a, errA := planScenario(shape)
			b, errB := planScenario(shape)
			if errA != nil || errB != nil {
				t.Fatalf("seed %d: %v / %v", seed, errA, errB)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d: two plans of %+v differ", seed, shape)
			}
		}
	}
}

// TestScenarioPlanRejectsUnrunnableShapes: a lone HA replica cannot
// elect, and the membership driver needs a leader to operate through.
func TestScenarioPlanRejectsUnrunnableShapes(t *testing.T) {
	for _, cfg := range []Scenario{{Replicas: 1}, {Replicas: -1}, {Shards: 4, Peak: 10}} {
		if _, err := planScenario(cfg); err == nil {
			t.Errorf("%+v planned without error", cfg)
		}
	}
}

// TestSettleRepairsSweepStaleExtras is the regression test for the
// churn settle race: a leaderless reconcile pass powers on servers that
// only a stale replica registry still lists; if the next census already
// finds a leader whose own book equals the final fleet, the replaced
// harness left its settle loop with those servers still up and the
// clean-departure audit counted them as orphan sockets. The reconcile
// decision must keep naming them — and so keep the settle loop going —
// until they are powered off.
func TestSettleRepairsSweepStaleExtras(t *testing.T) {
	final := []int{0, 1}
	active := func(ids ...int) []Member {
		book := make([]Member, len(ids))
		for i, id := range ids {
			book[i] = Member{ID: id, State: MemberActive}
		}
		return book
	}

	// Leaderless, quorum destroyed: planned member 1 is down, and the one
	// surviving replica's stale book still lists 2 and 3.
	up := []bool{true, false, false, false}
	got := planRepairs(final, up, [][]Member{nil, active(0, 1, 2, 3)}, -1)
	if want := (fleetRepairs{powerOn: []int{1, 2, 3}}); !reflect.DeepEqual(got, want) {
		t.Fatalf("leaderless pass planned %+v, want %+v", got, want)
	}

	// The pass ran; a leader emerged whose adopted book is already the
	// final fleet. Registry and health have converged, the extras have not.
	up = []bool{true, true, true, true}
	books := [][]Member{active(0, 1), active(0, 1, 2, 3)}
	if !fleetSettled(final, books[0], 2) {
		t.Fatal("the leader's book equals the final fleet and must read as settled")
	}
	got = planRepairs(final, up, books, 0)
	if want := (fleetRepairs{powerOff: []int{2, 3}}); !reflect.DeepEqual(got, want) {
		t.Fatalf("leader pass planned %+v, want %+v", got, want)
	}
	if got.none() {
		t.Fatal("settle would exit with servers up outside the final fleet")
	}

	// Extras the leader's book does list leave through decommission, and
	// are not swept a second time; a planned member it lacks is joined.
	got = planRepairs(final, up, [][]Member{active(0, 2)}, 0)
	if want := (fleetRepairs{decommission: []int{2}, join: []int{1}, powerOff: []int{3}}); !reflect.DeepEqual(got, want) {
		t.Fatalf("mixed pass planned %+v, want %+v", got, want)
	}

	// Swept: nothing left to do, the loop may exit.
	if got = planRepairs(final, []bool{true, true, false, false}, books, 0); !got.none() {
		t.Fatalf("converged fleet still planned %+v", got)
	}
}

package cluster

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// runSoakCorpus fans seeds 0..runs-1 of one scenario shape across a
// worker pool — 256 seeds, 24 under -short, halved under -race — and
// hands every passing report to fold (serialized). A failing seed's
// violations fail the test. Per-run resource audits are off because the
// process is shared; the caller's leak gate covers the whole corpus.
func runSoakCorpus(t *testing.T, shape Scenario, fold func(rep *ScenarioReport)) (runs int) {
	t.Helper()
	runs = 256
	if testing.Short() {
		runs = 24
	}
	workers := 4
	if n := runtime.GOMAXPROCS(0); n > 4 {
		workers = n
	}
	if workers > 16 {
		workers = 16
	}
	if raceEnabled {
		// Concurrent instrumented runs contend hard for CPU; keep the
		// fault schedules real-time-faithful by running fewer at once.
		workers = 2
		runs = runs / 2
	}
	shape.SkipResourceAudit = true
	var (
		mu     sync.Mutex
		seedCh = make(chan int)
		wg     sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := range seedCh {
				cfg := shape
				cfg.Seed = uint64(seed)
				rep, err := RunScenario(cfg)
				mu.Lock()
				switch {
				case err != nil:
					t.Errorf("seed %d: %v", seed, err)
				case !rep.Passed():
					for _, v := range rep.Violations {
						t.Errorf("seed %d: %s", seed, v)
					}
					t.Logf("seed %d: %s", seed, rep.Summary())
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
)

// TestScenarioPlanEquivalence pins what the runner plans for seeds 0–7
// of each tier shape to the values the three copy-grown harnesses it
// replaced (plain, HA and churn, at commit 79e5fef) reported for the
// same seeds: event counts per tier, the instant the last fault clears,
// the shard pool and the replayed final fleet. A seed therefore drives
// the same fleet, WAN and membership schedules as before.
func TestScenarioPlanEquivalence(t *testing.T) {
	if raceEnabled {
		t.Skip("the pinned instants are for the unstretched timebase")
	}
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

package faults

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/maestro"
)

// TestChaosSingleSeed exercises one full chaos run end to end and spells
// out each invariant separately, so a regression names what broke
// instead of just which seed.
func TestChaosSingleSeed(t *testing.T) {
	rep, err := RunChaos(ChaosConfig{Seed: 7})
	if err != nil {
		t.Fatalf("RunChaos: %v", err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if rep.Steps == 0 {
		t.Error("no engine steps recorded")
	}
	if rep.Events == 0 {
		t.Error("schedule generated no events")
	}
	t.Logf("seed 7: %dx%d, %d events, injected %v, daemon %+v, restarts %d, quarantines %d",
		rep.Sockets, rep.Cores, rep.Events, rep.Injected, rep.Daemon, rep.SamplerRestarts, rep.Quarantines)
}

// TestChaosCorpus replays a corpus of seeded fault schedules against the
// full pipeline — the acceptance gate: every run must satisfy the
// physics audit, never deadlock, never decide on stale data, and
// converge after its faults clear. Across the corpus the schedules must
// also collectively reach every fault kind and provoke both throttling
// and fail-safe entries somewhere, so the invariants are known to have
// been tested under fire rather than vacuously.
func TestChaosCorpus(t *testing.T) {
	runs := 256
	if testing.Short() {
		runs = 64
	}
	var totalInjected [NumKinds]uint64
	var activations, failsafes, restarts, quarantines uint64
	var adaptiveRuns, adaptiveActivations uint64
	for seed := 0; seed < runs; seed++ {
		cfg := ChaosConfig{Seed: uint64(seed)}
		// Every fourth seed runs the adaptive policy so its model and
		// hill-climb face the same fault schedules as the static gate.
		if seed%4 == 3 {
			cfg.Policy = maestro.Adaptive
		}
		rep, err := RunChaos(cfg)
		if err != nil {
			t.Fatalf("seed %d: RunChaos: %v", seed, err)
		}
		if !rep.Passed() {
			for _, v := range rep.Violations {
				t.Errorf("seed %d (policy %s): %s", seed, cfg.Policy, v)
			}
			continue
		}
		for k := range rep.Injected {
			totalInjected[k] += rep.Injected[k]
		}
		activations += rep.Daemon.Activations
		failsafes += rep.Daemon.FailsafeEntries
		restarts += rep.SamplerRestarts
		quarantines += rep.Quarantines
		if cfg.Policy == maestro.Adaptive {
			adaptiveRuns++
			adaptiveActivations += rep.Daemon.Activations
		}
	}
	if t.Failed() {
		return
	}
	for k := Kind(0); k < NumKinds; k++ {
		if totalInjected[k] == 0 {
			t.Errorf("fault kind %v never fired across %d seeds", k, runs)
		}
	}
	if activations == 0 {
		t.Error("no run ever engaged throttling: the corpus never exercised the actuation path")
	}
	if failsafes == 0 {
		t.Error("no run ever entered fail-safe: the corpus never exercised the watchdog")
	}
	if restarts == 0 {
		t.Error("no run ever restarted the sampler: the corpus never exercised the supervisor")
	}
	if quarantines == 0 {
		t.Error("no run ever quarantined a domain: the corpus never exercised the guard")
	}
	if adaptiveRuns == 0 {
		t.Error("no run ever used the adaptive policy: the corpus never exercised the hill-climb under faults")
	} else if adaptiveActivations == 0 {
		t.Error("no adaptive run ever engaged throttling: the adaptive arm was tested vacuously")
	}
	t.Logf("%d runs (%d adaptive): injected %v, activations %d, failsafes %d, restarts %d, quarantines %d",
		runs, adaptiveRuns, totalInjected, activations, failsafes, restarts, quarantines)
}

// TestChaosEveryPolicy subjects every maestro policy to a handful of
// fault schedules. The invariant under test: no policy, whatever its
// internal model, can cause a throttle decision on data older than the
// staleness horizon, because the daemon's watchdog gates the policy's
// inputs rather than trusting the policy to check.
func TestChaosEveryPolicy(t *testing.T) {
	seeds := []uint64{3, 11, 42}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, policy := range []maestro.Policy{maestro.DualCondition, maestro.PowerOnly, maestro.Adaptive} {
		for _, seed := range seeds {
			rep, err := RunChaos(ChaosConfig{Seed: seed, Policy: policy})
			if err != nil {
				t.Fatalf("policy %s seed %d: RunChaos: %v", policy, seed, err)
			}
			if rep.StaleDecisions != 0 {
				t.Errorf("policy %s seed %d: %d decision(s) on stale-horizon data", policy, seed, rep.StaleDecisions)
			}
			for _, v := range rep.Violations {
				t.Errorf("policy %s seed %d: %s", policy, seed, v)
			}
		}
	}
}

// TestChaosDeterministic: the same seed must produce the same schedule,
// the same topology and the same step count — the reproducibility that
// makes a failing seed debuggable. RunChaos holds the machine's clock, so
// its whole report repeats at any GOMAXPROCS.
func TestChaosDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		var reps [2]*ChaosReport
		for i, procs := range []int{1, runtime.GOMAXPROCS(0)} {
			prev := runtime.GOMAXPROCS(procs)
			rep, err := RunChaos(ChaosConfig{Seed: seed})
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("seed %d, GOMAXPROCS %d: RunChaos: %v", seed, procs, err)
			}
			reps[i] = rep
		}
		if !reflect.DeepEqual(reps[0], reps[1]) {
			t.Errorf("seed %d: reports differ between GOMAXPROCS 1 and %d:\n %+v\n %+v",
				seed, runtime.GOMAXPROCS(0), reps[0], reps[1])
		}
	}
	a := GenerateSchedule(42, 400*time.Millisecond, 2)
	b := GenerateSchedule(42, 400*time.Millisecond, 2)
	if len(a.Events) != len(b.Events) {
		t.Fatalf("schedule lengths differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Errorf("event %d differs: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
	}
}

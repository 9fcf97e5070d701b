package experiments

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/compiler"
	"repro/internal/maestro"
	"repro/internal/qthreads"
	"repro/internal/replaytest"
)

// cellReplay is everything a cell run leaves behind that a second run of
// the same cell must reproduce to the bit.
type cellReplay struct {
	seconds, joules uint64
	daemon          maestro.Stats
	trace           string
}

// TestRunReplay is the replay gate: a cell is a pure function of its
// seed. Every program with a gcc -O2 build runs at 1, 12 and 16 workers,
// fixed with parking idlers and under the MAESTRO daemon with spinning
// ones (only the 16-worker third under -short), once per
// replaytest.Hosts setting, and the four runs must agree on the bits of
// seconds and joules, the daemon's statistics and every byte of the
// scheduler trace.
func TestRunReplay(t *testing.T) {
	lab := NewLab()
	var specs []RunSpec
	for _, app := range compiler.Apps() {
		if !compiler.Supported(app, compiler.GCC) {
			continue
		}
		for _, workers := range []int{1, ThrottledThreads, FullThreads} {
			if testing.Short() && workers != FullThreads {
				continue
			}
			fixed := RunSpec{App: app, Target: compiler.Baseline, Workers: workers}
			dynamic := fixed
			dynamic.SpinOnlyIdle, dynamic.Throttle = true, ThrottleDynamic
			specs = append(specs, fixed, dynamic)
		}
	}
	var first []cellReplay
	for _, h := range replaytest.Hosts {
		got := make([]cellReplay, len(specs))
		restore := h.Set()
		err := lab.runCells(len(specs), func(i int) (err error) {
			got[i], err = replayCell(lab, specs[i])
			return err
		})
		restore()
		if err != nil {
			t.Fatalf("%s: %v", h.Name, err)
		}
		if first == nil {
			first = got
			continue
		}
		for i, spec := range specs {
			if a, b := first[i], got[i]; a != b {
				t.Errorf("%s/%d dynamic=%v: run %q differs from the first: %.9f s %.6f J %+v (trace equal: %v), first %.9f s %.6f J %+v",
					spec.App, spec.Workers, spec.Throttle == ThrottleDynamic, h.Name,
					math.Float64frombits(b.seconds), math.Float64frombits(b.joules), b.daemon, a.trace == b.trace,
					math.Float64frombits(a.seconds), math.Float64frombits(a.joules), a.daemon)
			}
		}
	}
}

func replayCell(lab *Lab, spec RunSpec) (cellReplay, error) {
	rec := qthreads.NewRecorder(0)
	m, err := lab.runOnceSeeded(spec, lab.Seed, rec)
	if err != nil {
		return cellReplay{}, err
	}
	var csv bytes.Buffer
	if err := rec.WriteCSV(&csv); err != nil {
		return cellReplay{}, fmt.Errorf("writing trace: %w", err)
	}
	return cellReplay{
		seconds: math.Float64bits(m.Seconds),
		joules:  math.Float64bits(m.Joules),
		daemon:  m.Daemon,
		trace:   csv.String(),
	}, nil
}

// TestRunReplayFleet is the replay gate one level up: the cluster
// experiments are pure functions of their spec and the Lab seed. A
// two-shard cap ablation with all three arms (naive, hierarchical, two HA
// replicas with a leader kill) and the elasticity cycle run once per
// replaytest.Hosts setting and must agree on every field of their results —
// energies and makespans to the float bit, polls, repartitions,
// elections, hand-off, final caps. (TestClusterCapAblation replays the
// default four-shard spec back to back.) Under -short each shard runs
// its workload once instead of twice: on two vCPUs the race build takes
// 64 s for the full size and 30 s short, the plain build 2.6 s and 1.3 s.
func TestRunReplayFleet(t *testing.T) {
	lab := NewLab()
	spec := ClusterSpec{Shards: 2, HAReplicas: 2}
	if testing.Short() {
		spec.Iters = 1
	}
	type fleetReplay struct {
		cluster ClusterResult
		elastic ElasticityResult
	}
	var first fleetReplay
	for i, h := range replaytest.Hosts {
		var got fleetReplay
		restore := h.Set()
		var err error
		if got.cluster, err = lab.ClusterCapAblation(spec); err == nil {
			got.elastic, err = lab.ElasticityAblation(ElasticitySpec{})
		}
		restore()
		if err != nil {
			t.Fatalf("%s: %v", h.Name, err)
		}
		if got.cluster.HA == nil || got.cluster.HA.LeaderKills != 1 {
			t.Fatalf("%s: the HA arm paid no hand-off: %+v", h.Name, got.cluster.HA)
		}
		if i == 0 {
			first = got
		} else if !reflect.DeepEqual(first, got) {
			t.Errorf("run %q differs from the first:\n%+v\n%+v\nfirst:\n%+v\n%+v",
				h.Name, got.cluster, got.elastic, first.cluster, first.elastic)
		}
	}
}

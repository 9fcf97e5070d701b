package maestro_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/maestro"
	"repro/internal/qthreads"
	"repro/internal/telemetry"
	"repro/internal/workloads"
	"repro/internal/workloads/suite"
)

// journalGoldenScale is the lulesh input scale of the journal golden:
// large enough that the adaptive run detects a phase, refits its model
// and moves its operating point, so every journal kind the daemon writes
// on a healthy run is pinned.
const journalGoldenScale = 0.2

// TestJournalGolden pins the daemon's whole decision trail — every
// journal record and the final Stats — for one reduced-scale lulesh run
// under each policy, against testdata/journal.golden. A
// run is a pure function of its options, so any difference is a change
// in what the daemon decided. The file was generated by an earlier
// commit; regenerating it from the code under test defeats it.
func TestJournalGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/journal.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := journalTrail(t)
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	section := ""
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if strings.HasPrefix(w, "# ") {
			section = w
		}
		if g != w {
			t.Fatalf("journal golden: first difference at line %d (%s):\n got %s\nwant %s", i+1, section, g, w)
		}
	}
}

// journalTrail runs the four daemon configurations and renders each
// journal as JSONL followed by its Stats.
func journalTrail(t *testing.T) []byte {
	t.Helper()
	var out bytes.Buffer
	for _, arm := range []struct {
		name string
		cfg  maestro.Config
	}{
		{"dual-condition", maestro.Config{}},
		{"power-only", maestro.Config{Policy: maestro.PowerOnly}},
		{"adaptive", maestro.Config{Policy: maestro.Adaptive}},
		{"scale-frequency", maestro.Config{Policy: maestro.ScaleFrequency}},
	} {
		wl, err := suite.New(compiler.AppLULESH)
		if err != nil {
			t.Fatal(err)
		}
		if err := wl.Prepare(workloads.Params{Target: compiler.Baseline, Scale: journalGoldenScale}); err != nil {
			t.Fatal(err)
		}
		sys, err := core.New(core.Options{
			Qthreads:           qthreads.Config{SpinOnlyIdle: true},
			AdaptiveThrottling: true,
			Maestro:            arm.cfg,
			Warm:               true,
			Telemetry:          true,
		})
		if err != nil {
			t.Fatal(err)
		}
		_, err = sys.RunWorkload(wl)
		stats, _ := sys.Throttling()
		journal := sys.Journal()
		sys.Close()
		if err != nil {
			t.Fatalf("%s: %v", arm.name, err)
		}
		if arm.cfg.Policy == maestro.Adaptive {
			kinds := map[string]int{}
			for _, d := range journal.Entries() {
				kinds[d.Kind]++
			}
			for _, k := range []string{telemetry.KindPhaseDetected, telemetry.KindModelRefit, telemetry.KindOperatingPointChanged} {
				if kinds[k] == 0 {
					t.Fatalf("adaptive run recorded no %s (kinds %v): raise journalGoldenScale", k, kinds)
				}
			}
		}
		fmt.Fprintf(&out, "# %s\n", arm.name)
		if err := journal.WriteJSONL(&out); err != nil {
			t.Fatal(err)
		}
		line, err := json.Marshal(stats)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "stats %s\n", line)
	}
	return out.Bytes()
}

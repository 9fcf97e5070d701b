package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/replaytest"
)

func TestRunValidation(t *testing.T) {
	if err := run("nqueens", "tcc", 2, 8, 1, false, false, "", ""); err == nil {
		t.Error("unknown compiler accepted")
	}
	if err := run("nqueens", "gcc", 7, 8, 1, false, false, "", ""); err == nil {
		t.Error("bad optimization level accepted")
	}
	if err := run("bogus-app", "gcc", 2, 8, 1, false, false, "", ""); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestRunSmallBenchmark(t *testing.T) {
	if err := run("nqueens", "gcc", 2, 8, 0.2, false, false, "", ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithThrottle(t *testing.T) {
	if err := run("bots-health-cutoff", "gcc", 3, 16, 1, true, false, "", ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunWritesTraceAndHistory(t *testing.T) {
	dir := t.TempDir()
	tr := filepath.Join(dir, "trace.csv")
	hi := filepath.Join(dir, "hist.csv")
	if err := run("nqueens", "gcc", 2, 8, 0.2, false, false, tr, hi); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{tr, hi} {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) < 20 {
			t.Errorf("%s suspiciously small (%d bytes)", p, len(data))
		}
	}
}

// TestTraceAndHistoryReplay is the replay gate of the command: a
// throttled run with -trace and -history, once per replaytest.Hosts
// setting, must write byte-identical CSVs — the history's last sample
// included, which is taken at the run's completion and not wherever the
// host got to before exit.
func TestTraceAndHistoryReplay(t *testing.T) {
	dir := t.TempDir()
	var first [2][]byte
	for i, h := range replaytest.Hosts {
		paths := [2]string{filepath.Join(dir, "trace.csv"), filepath.Join(dir, "hist.csv")}
		restore := h.Set()
		err := run("bots-health-cutoff", "gcc", 3, 16, 1, true, false, paths[0], paths[1])
		restore()
		if err != nil {
			t.Fatalf("%s: %v", h.Name, err)
		}
		for k, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				first[k] = data
			} else if !bytes.Equal(data, first[k]) {
				t.Errorf("%s: %s differs from the first run's (%d bytes, first %d)", h.Name, filepath.Base(p), len(data), len(first[k]))
			}
		}
	}
}

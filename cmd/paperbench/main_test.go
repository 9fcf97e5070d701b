package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestRunUnknownExperiment(t *testing.T) {
	lab := experiments.NewLab()
	if err := run(lab, "bogus", ""); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestExperimentTableMatchesDoc: the command doc's Experiments list is
// the table's names in order, then "all".
func TestExperimentTableMatchesDoc(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	_, doc, ok := strings.Cut(string(src), "// Experiments:")
	doc, _, ok2 := strings.Cut(doc, ".\n")
	if !ok || !ok2 {
		t.Fatal("main.go has no \"// Experiments: ... .\" list")
	}
	documented := strings.Fields(strings.ReplaceAll(doc, "//", ""))
	var names []string
	for _, e := range experimentTable(experiments.NewLab()) {
		names = append(names, e.name)
	}
	if want := append(names, "all"); !slices.Equal(documented, want) {
		t.Errorf("command doc lists %v, the table runs %v", documented, want)
	}
}

func TestRunDutyCycle(t *testing.T) {
	lab := experiments.NewLab()
	if err := run(lab, "dutycycle", ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunColdStart(t *testing.T) {
	lab := experiments.NewLab()
	if err := run(lab, "coldstart", ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunElasticity(t *testing.T) {
	lab := experiments.NewLab()
	if err := run(lab, "elasticity", ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunTableWithCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("table sweep in -short mode")
	}
	lab := experiments.NewLab()
	csvPath := filepath.Join(t.TempDir(), "t1.csv")
	if err := run(lab, "table1", csvPath); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Error("CSV file is empty")
	}
}

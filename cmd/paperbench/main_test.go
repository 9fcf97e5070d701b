package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
)

func TestRunUnknownExperiment(t *testing.T) {
	lab := experiments.NewLab()
	if err := run(lab, "bogus", ""); err == nil {
		t.Error("unknown experiment accepted")
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

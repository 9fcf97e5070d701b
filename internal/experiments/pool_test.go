package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/compiler"
)

func TestRunCellsSerialFailsFast(t *testing.T) {
	lab := NewLab()
	lab.Parallel = 1
	var calls atomic.Int64
	wantErr := errors.New("cell 2 broke")
	err := lab.runCells(10, func(i int) error {
		calls.Add(1)
		if i == 2 {
			return wantErr
		}
		return nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	if calls.Load() != 3 {
		t.Errorf("serial runCells ran %d cells after an error at cell 2, want 3", calls.Load())
	}
}

func TestRunCellsParallelReturnsLowestIndexError(t *testing.T) {
	lab := NewLab()
	lab.Parallel = 4
	var calls atomic.Int64
	err := lab.runCells(16, func(i int) error {
		calls.Add(1)
		if i == 11 || i == 5 {
			return fmt.Errorf("cell %d broke", i)
		}
		return nil
	})
	if err == nil || err.Error() != "cell 5 broke" {
		t.Fatalf("err = %v, want the lowest-index failure (cell 5)", err)
	}
	// Cells 0..5 can never be cancelled (no failure below them exists),
	// so at least those six always run; cells above a registered failure
	// may legitimately be skipped.
	if got := calls.Load(); got < 6 || got > 16 {
		t.Errorf("parallel runCells ran %d cells, want between 6 and 16", got)
	}
}

// TestRunCellsParallelCancelsDoomedCells checks the early-cancel path:
// once a cell fails, cells with higher indexes stop being started. Cell
// 0 fails immediately while every other cell takes visible time, so all
// but the few cells already in flight must be skipped.
func TestRunCellsParallelCancelsDoomedCells(t *testing.T) {
	lab := NewLab()
	lab.Parallel = 2
	const n = 64
	var calls atomic.Int64
	wantErr := errors.New("cell 0 broke")
	err := lab.runCells(n, func(i int) error {
		calls.Add(1)
		if i == 0 {
			return wantErr
		}
		time.Sleep(5 * time.Millisecond)
		return nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	// Worst case both workers had started a cell before the failure
	// registered; everything after must be cancelled.
	if got := calls.Load(); got >= n/2 {
		t.Errorf("ran %d of %d cells after an immediate cell-0 failure; cancellation is not kicking in", got, n)
	}
}

// TestRunCellsParallelLowerErrorStillWinsAfterCancel pins the
// determinism contract the cancellation must preserve: a high-index cell
// failing first must not cancel a lower-index cell whose later failure
// is the one to report.
func TestRunCellsParallelLowerErrorStillWinsAfterCancel(t *testing.T) {
	lab := NewLab()
	lab.Parallel = 4
	cell2May := make(chan struct{})
	err := lab.runCells(16, func(i int) error {
		switch i {
		case 10:
			defer close(cell2May) // cell 10's failure lands first...
			return fmt.Errorf("cell 10 broke")
		case 2:
			<-cell2May // ...strictly before cell 2's
			return fmt.Errorf("cell 2 broke")
		}
		return nil
	})
	if err == nil || err.Error() != "cell 2 broke" {
		t.Fatalf("err = %v, want cell 2's later, lower-index failure", err)
	}
}

func TestRunCellsCoversEveryIndexOnce(t *testing.T) {
	lab := NewLab()
	lab.Parallel = 3
	const n = 100
	var hits [n]atomic.Int32
	if err := lab.runCells(n, func(i int) error {
		hits[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Errorf("cell %d ran %d times", i, got)
		}
	}
}

// TestParallelSweepMatchesSerial is the determinism gate for the parallel
// Lab: every cell runs on its own machine with a seed derived from the
// spec alone, and a cell is a pure function of its seed, so a fanned-out
// sweep must reproduce the serial one to the bit.
func TestParallelSweepMatchesSerial(t *testing.T) {
	target := compiler.Target{Compiler: compiler.GCC, Opt: compiler.O2}
	threads := []int{1, 2, 4}

	serialLab := NewLab()
	serialLab.Parallel = 1
	serial, err := serialLab.Sweep(compiler.AppReduction, target, threads)
	if err != nil {
		t.Fatal(err)
	}
	parallelLab := NewLab()
	parallelLab.Parallel = 4
	parallel, err := parallelLab.Sweep(compiler.AppReduction, target, threads)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("parallel sweep differs:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

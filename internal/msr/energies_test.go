package msr_test

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/msr"
	"repro/internal/units"
)

// TestAddPackageEnergiesMatchesPerSocket holds the engine's one-lock
// update of every socket to one call per socket: over a run of steps
// with fractional counts, zero and negative entries, both files carry
// the same counters (remainders included, as the next step shows) and a
// slice longer than the socket count is a range error.
func TestAddPackageEnergiesMatchesPerSocket(t *testing.T) {
	batch, single := msr.NewFile(2, 8), msr.NewFile(2, 8)
	rng := rand.New(rand.NewSource(48))
	step := make([]units.Joules, 2)
	for k := 0; k < 5000; k++ {
		for s := range step {
			switch rng.Intn(8) {
			case 0:
				step[s] = 0
			case 1:
				step[s] = -units.RAPLUnit
			default:
				step[s] = units.Joules(rng.Float64() * 0.1) // up to ~6,500 counts
			}
		}
		if err := batch.AddPackageEnergies(step); err != nil {
			t.Fatal(err)
		}
		for s, e := range step {
			one := make([]units.Joules, s+1)
			one[s] = e
			if err := single.AddPackageEnergies(one); err != nil {
				t.Fatal(err)
			}
		}
		for s := range step {
			if b, o := batch.PackageEnergyCounter(s), single.PackageEnergyCounter(s); b != o {
				t.Fatalf("step %d socket %d: counter %d charged with every socket, %d charged alone", k, s, b, o)
			}
		}
	}
	var re *msr.RangeError
	if err := batch.AddPackageEnergies(make([]units.Joules, 3)); !errors.As(err, &re) {
		t.Errorf("AddPackageEnergies of 3 sockets on a 2-socket file: err = %v, want RangeError", err)
	}
}

// TestEnergyCounterUnderConcurrentReads pins the RAPL counters as safe
// to read from a goroutine the machine does not own while its engine
// charges every socket's counter once per step: a foreign reader polls
// both sockets through ReadPackage and PackageEnergyCounter while an
// owner charges a 400-step work item. Every read must be a counter
// value the engine published — never behind an earlier read — and the
// final counter must match the exact energy. The owner starts charging
// only after the reader's first poll, and the reader polls at least once
// more before it looks at the done flag, so at least one poll is
// unordered with the engine's updates but for the register file's lock:
// CI runs the test under -race, where a counter updated without that
// lock is a report.
func TestEnergyCounterUnderConcurrentReads(t *testing.T) {
	cfg := machine.M620()
	cfg.VirtualTimeLimit = time.Minute
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	file := m.MSR()

	var done atomic.Bool
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the foreign reader
		defer wg.Done()
		last := make([]uint32, cfg.Sockets)
		check := func(s int, v uint32) {
			// The counter starts at zero and this run charges far less
			// than 2^32 counts, so it never wraps: a smaller value is a
			// torn or reordered read.
			if v < last[s] {
				t.Errorf("socket %d counter went back from %d to %d", s, last[s], v)
			}
			last[s] = v
		}
		for polls := 0; ; polls++ {
			for s := 0; s < cfg.Sockets; s++ {
				v, err := file.ReadPackage(s, msr.MSRPkgEnergyStatus)
				if err != nil {
					t.Error(err)
				}
				check(s, uint32(v))
				check(s, file.PackageEnergyCounter(s))
			}
			if polls == 0 {
				close(started)
			} else if done.Load() {
				return
			}
		}
	}()

	owner, err := m.Enroll(1)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	owner.Execute(machine.Work{Ops: 400 * float64(cfg.BaseFreq) * cfg.MaxStep.Seconds(), Bytes: 1e8, Overlap: 0.5})
	owner.Release()
	done.Store(true)
	wg.Wait()

	for s := 0; s < cfg.Sockets; s++ {
		c := file.PackageEnergyCounter(s)
		exact := float64(m.SocketEnergy(s)) / float64(units.RAPLUnit)
		if math.Abs(float64(c)-exact) > 1 {
			t.Errorf("socket %d: final counter %d, exact energy is %.1f counts", s, c, exact)
		}
	}
}

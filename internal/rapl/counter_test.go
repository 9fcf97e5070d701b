package rapl

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/msr"
	"repro/internal/units"
)

func TestWrapDeltaNoWrap(t *testing.T) {
	if got := WrapDelta(100, 350, units.RAPLCounterMod); got != 250 {
		t.Errorf("WrapDelta(100, 350) = %d, want 250", got)
	}
}

func TestWrapDeltaWrap(t *testing.T) {
	// old near the top, new small: exactly one wrap.
	if got := WrapDelta(units.RAPLCounterMod-10, 5, units.RAPLCounterMod); got != 15 {
		t.Errorf("WrapDelta(wrap) = %d, want 15", got)
	}
}

func TestWrapDeltaZero(t *testing.T) {
	if got := WrapDelta(42, 42, units.RAPLCounterMod); got != 0 {
		t.Errorf("WrapDelta(42, 42) = %d, want 0", got)
	}
}

// TestWrapDeltaProperty: for any modulus, any start value and any
// advance below the modulus, the decoded delta equals the advance.
func TestWrapDeltaProperty(t *testing.T) {
	f := func(mod, start, adv uint64) bool {
		mod = mod%(1<<62) + 1
		start, adv = start%mod, adv%mod
		return WrapDelta(start, (start+adv)%mod, mod) == adv
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// counterSource is one of the three sources a Reader is built over (the
// simulated msr.File, fake /dev/cpu/N/msr device files, a fake powercap
// tree): it opens a reader whose one domain starts at raw value start,
// and returns how to set the raw register and how to make its reads fail.
type counterSource struct {
	name string
	mod  uint64  // the source's wrap modulus in counts
	unit float64 // the source's joules per count
	open func(t *testing.T, start uint64) (r Reader, set func(uint64), fail func(bool))
}

var counterSources = []counterSource{
	{
		name: "MSRReader", mod: units.RAPLCounterMod, unit: float64(units.RAPLUnit),
		open: func(t *testing.T, start uint64) (Reader, func(uint64), func(bool)) {
			file := msr.NewFile(1, 1)
			set := func(v uint64) {
				if err := file.WritePackage(0, msr.MSRPkgEnergyStatus, v); err != nil {
					t.Fatal(err)
				}
			}
			set(start)
			r, err := NewMSRReader(file)
			if err != nil {
				t.Fatal(err)
			}
			fail := func(on bool) {
				file.SetReadHook(nil)
				if on {
					file.SetReadHook(func(msr.Access) (uint64, error) { return 0, errors.New("injected: rdmsr failed") })
				}
			}
			return r, set, fail
		},
	},
	{
		name: "DevMSRReader", mod: units.RAPLCounterMod, unit: 1.0 / 65536,
		open: func(t *testing.T, start uint64) (Reader, func(uint64), func(bool)) {
			dir := t.TempDir()
			d := newFakeMSRDevice(t, dir, 0, 16, uint32(start)) // ESU 16: 2^-16 J
			r, err := NewDevMSRReader(filepath.Join(dir, "msr%d"), []int{0})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { r.Close() })
			set := func(v uint64) { d.writeReg(msr.MSRPkgEnergyStatus, v) }
			fail := func(on bool) {
				// A file cut below the register reads EOF at its address.
				size := int64(msr.MSRPkgEnergyStatus) + 16
				if on {
					size = int64(msr.MSRPkgEnergyStatus)
				}
				if err := os.Truncate(d.path, size); err != nil {
					t.Fatal(err)
				}
			}
			return r, set, fail
		},
	},
	{
		name: "SysfsReader", mod: 1_000_000, unit: 1e-6,
		open: func(t *testing.T, start uint64) (Reader, func(uint64), func(bool)) {
			root := t.TempDir()
			p := writeSysfsDomain(t, root, "intel-rapl:0", "package-0", start, 1_000_000)
			r, err := NewSysfsReader(root)
			if err != nil {
				t.Fatal(err)
			}
			energy := filepath.Join(p, "energy_uj")
			set := func(v uint64) {
				if err := os.WriteFile(energy, []byte(strconv.FormatUint(v, 10)+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			fail := func(on bool) {
				// The file is rewritten by the next set.
				if on {
					if err := os.Remove(energy); err != nil && !os.IsNotExist(err) {
						t.Fatal(err)
					}
				}
			}
			return r, set, fail
		},
	},
}

// TestEverySourceCountsWrapsAndResyncs runs one script through every
// source: a baseline, an advance, a wrap, an outage across which the
// counter wraps again, and the recovery. Each source books the same
// counts in its own unit, and none books the cross-outage lap: the first
// good read after a failure only becomes the new baseline.
func TestEverySourceCountsWrapsAndResyncs(t *testing.T) {
	for _, src := range counterSources {
		t.Run(src.name, func(t *testing.T) {
			mod := src.mod
			r, set, fail := src.open(t, mod-300)
			script := []struct {
				what   string
				raw    uint64
				failed bool
				counts uint64 // counts booked since the baseline
			}{
				{what: "advance", raw: mod - 200, counts: 100},
				{what: "wrap", raw: 50, counts: 350},
				{what: "outage", failed: true},
				{what: "outage", failed: true},
				{what: "recovery past a wrap", raw: 20, counts: 350},
				{what: "resumed", raw: 120, counts: 450},
			}
			for i, st := range script {
				fail(st.failed)
				if !st.failed {
					set(st.raw)
				}
				e, err := r.Energy(0)
				if st.failed {
					if err == nil {
						t.Fatalf("step %d (%s): read succeeded, want a failure", i, st.what)
					}
					continue
				}
				if err != nil {
					t.Fatalf("step %d (%s): %v", i, st.what, err)
				}
				want := float64(st.counts) * src.unit
				if math.Abs(float64(e)-want) > 1e-9*want {
					t.Fatalf("step %d (%s): %v J, want %g J (%d counts of %g J); a lap is %g J",
						i, st.what, float64(e), want, st.counts, src.unit, float64(mod)*src.unit)
				}
			}
		})
	}
}

// TestCounterConcurrentReads: readers of one domain racing the register's
// writer never book more than the register moved. A raw read booked
// after a newer one would read as a wrap and book a phantom lap.
func TestCounterConcurrentReads(t *testing.T) {
	file := msr.NewFile(1, 1)
	r, err := NewMSRReader(file)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 200000
	limit := float64(counts(steps)) * (1 + 1e-9)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if e, err := r.Energy(0); err != nil || float64(e) > limit {
					t.Errorf("concurrent read: %v, %v; the register moved %v", e, err, counts(steps))
					return
				}
			}
		}()
	}
	for v := uint64(1); v <= steps; v++ {
		if err := file.WritePackage(0, msr.MSRPkgEnergyStatus, v); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
	if e, err := r.Energy(0); err != nil || math.Abs(float64(e-counts(steps))) > 1e-9 {
		t.Errorf("final energy %v, %v; want %v", e, err, counts(steps))
	}
}

// FuzzCounter drives one counter domain through a drawn modulus, unit
// and sequence of reads. Each 9-byte record of script is one read: a
// flag byte (odd: the read fails) and the raw value, little-endian. The
// first good read is the baseline. Cumulative energy never decreases,
// no step books more than one lap (mod × unit, within the rounding of
// the running sum), and the first good read after a failure books
// nothing.
func FuzzCounter(f *testing.F) {
	rec := func(failed bool, raw uint64) []byte {
		b := make([]byte, 9)
		if failed {
			b[0] = 1
		}
		binary.LittleEndian.PutUint64(b[1:], raw)
		return b
	}
	var outage []byte
	for _, r := range [][]byte{rec(false, 1<<32-300), rec(false, 50), rec(true, 0), rec(false, 20), rec(false, 120)} {
		outage = append(outage, r...)
	}
	f.Add(uint64(1<<32), uint16(15), outage)
	f.Add(uint64(1_000_000), uint16(0), append(rec(false, 999_999), rec(false, 0)...))
	f.Add(uint64(1), uint16(7), append(rec(true, 5), rec(false, 5)...))
	f.Fuzz(func(t *testing.T, mod uint64, unitDraw uint16, script []byte) {
		if mod == 0 {
			mod = 1
		}
		unit := float64(unitDraw%1000+1) * 1e-6
		type read struct {
			failed bool
			raw    uint64
		}
		var reads []read
		for len(script) >= 9 && len(reads) < 256 {
			reads = append(reads, read{script[0]&1 == 1, binary.LittleEndian.Uint64(script[1:9])})
			script = script[9:]
		}
		next := 0
		c := &counter{read: func(int) (uint64, error) {
			r := reads[next]
			next++
			if r.failed {
				return 0, errors.New("injected")
			}
			return r.raw, nil
		}}
		for next < len(reads) && c.addDomain(mod, unit) != nil {
			// Failed reads before the first good one set no baseline.
		}
		lap := float64(mod) * unit
		prev, afterFault := 0.0, false
		for next < len(reads) {
			e, err := c.Energy(0)
			if err != nil {
				afterFault = true
				continue
			}
			step := float64(e) - prev
			switch {
			case step < 0:
				t.Fatalf("read %d: energy fell from %g to %g", next-1, prev, float64(e))
			case step > lap*(1+1e-9):
				t.Fatalf("read %d: booked %g J, more than one lap of %g J", next-1, step, lap)
			case afterFault && step != 0:
				t.Fatalf("read %d: first good read after a failure booked %g J", next-1, step)
			}
			prev, afterFault = float64(e), false
		}
	})
}

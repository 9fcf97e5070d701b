package rapl

import (
	"sync"

	"repro/internal/units"
)

// WrapDelta returns how far a counter that wraps at mod advanced from
// old to new, assuming at most one wrap between the two reads (paper
// §II-A: "the measurement tools monitor the number of wraps"). Both
// values must be below mod.
func WrapDelta(old, new, mod uint64) uint64 {
	if new < old {
		return mod - old + new
	}
	return new - old
}

// counter turns one raw, wrapping energy register per domain into the
// cumulative joules a Reader returns. It is the wrap and fault handling
// of every reader in this package; a reader supplies only how to read a
// domain's raw value, and each domain's wrap modulus and unit.
//
// Wrap handling across read faults: a register disambiguates at most
// one wrap between two reads, so after a failed read the next good
// value only becomes the new baseline and no delta is booked. Trusting
// the cross-outage difference would book a near-full lap (~65.7 kJ for
// 2^32 counts at 15.3 µJ) whenever the counter wrapped, or merely moved
// backwards past a stale baseline, during the outage. Under-counting the
// unattributable window is the conservative failure (docs/robustness.md).
//
// A raw read and its booking share one lock, or two readers could book
// an older value after a newer one: a wrap, and a phantom lap.
type counter struct {
	read func(domain int) (uint64, error)

	mu   sync.Mutex
	doms []counterDomain // fixed at construction
}

type counterDomain struct {
	mod    uint64  // wrap modulus in counts
	unit   float64 // joules per count
	last   uint64  // raw value at the last good read
	acc    float64 // joules booked so far
	desync bool    // a read failed since the last good one
}

// addDomain appends the next domain, zeroed at its current raw value.
func (c *counter) addDomain(mod uint64, unit float64) error {
	v, err := c.read(len(c.doms))
	if err != nil {
		return err
	}
	c.doms = append(c.doms, counterDomain{mod: mod, unit: unit, last: v % mod})
	return nil
}

// Domains returns the number of domains.
func (c *counter) Domains() int { return len(c.doms) }

// Energy returns the wrap-corrected cumulative energy of a domain since
// the reader was created.
func (c *counter) Energy(domain int) (units.Joules, error) {
	if domain < 0 || domain >= len(c.doms) {
		return 0, domainError(domain, len(c.doms))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	v, err := c.read(domain)
	d := &c.doms[domain]
	if err != nil {
		d.desync = true
		return 0, err
	}
	v %= d.mod
	if d.desync {
		d.desync = false
	} else {
		// The conversion rounds the product on its own, so no platform
		// fuses it into the add and every host books the same bits.
		d.acc += float64(float64(WrapDelta(d.last, v, d.mod)) * d.unit)
	}
	d.last = v
	return units.Joules(d.acc), nil
}

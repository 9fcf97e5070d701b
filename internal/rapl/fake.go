package rapl

import (
	"sync"

	"repro/internal/units"
)

// Fake is a settable Reader for tests of code layered above RAPL.
type Fake struct {
	mu     sync.Mutex
	energy []units.Joules
	err    error
}

// NewFake creates a fake reader with the given number of domains, all at
// zero energy.
func NewFake(domains int) *Fake {
	return &Fake{energy: make([]units.Joules, domains)}
}

// Add accumulates energy into a domain.
func (f *Fake) Add(domain int, e units.Joules) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.energy[domain] += e
}

// SetError makes subsequent Energy calls fail with err (nil clears it).
func (f *Fake) SetError(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.err = err
}

// Domains returns the domain count.
func (f *Fake) Domains() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.energy)
}

// Energy returns the domain's current value.
func (f *Fake) Energy(domain int) (units.Joules, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err != nil {
		return 0, f.err
	}
	if domain < 0 || domain >= len(f.energy) {
		return 0, domainError(domain, len(f.energy))
	}
	return f.energy[domain], nil
}

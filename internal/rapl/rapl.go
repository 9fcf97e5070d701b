// Package rapl reads Running Average Power Limit energy counters.
//
// The paper (§II-A) uses the Sandybridge MSR_PKG_ENERGY_STATUS counter:
// 32 bits wide, counting in 15.3 µJ units, wrapping every few minutes at
// typical power draw. This package provides that counter behind a Reader
// interface with three implementations:
//
//   - MSRReader: reads the simulated machine's MSR file, handling
//     wraparound exactly as a real MSR-based tool must.
//   - SysfsReader: reads the Linux powercap interface
//     (/sys/class/powercap/intel-rapl*) on a real host.
//   - Fake: a settable reader for tests.
//
// Guard wraps any Reader in the fail-safe state machine of
// docs/robustness.md. Its tuning is fixed and sized to the RCR sampler's
// 10 ms period: three consecutive faults quarantine a domain, retries
// back off from 10 ms to at most 80 ms, a window moving more than 2000 J
// is garbage, and eight identical windows are a stuck counter.
//
// Readers return cumulative, monotonically non-decreasing energy per
// domain (one domain per package/socket). Wrap correction requires the
// caller to poll more often than the counter wrap interval; at 200 W a
// 32-bit 15.3 µJ counter wraps roughly every 5.5 minutes.
package rapl

import (
	"fmt"

	"repro/internal/units"
)

// Reader reads cumulative energy for a set of RAPL domains.
type Reader interface {
	// Domains returns the number of energy domains (packages).
	Domains() int
	// Energy returns the cumulative energy of the domain since the reader
	// was created. It is monotonically non-decreasing and wrap-corrected.
	Energy(domain int) (units.Joules, error)
}

// domainError reports an out-of-range domain index.
func domainError(domain, limit int) error {
	return fmt.Errorf("rapl: domain %d out of range [0,%d)", domain, limit)
}

package rapl

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// DefaultPowercapPath is where Linux exposes the RAPL powercap interface.
const DefaultPowercapPath = "/sys/class/powercap"

// SysfsReader reads package energy from the Linux powercap interface on a
// real Intel host. Each top-level "intel-rapl:N" directory is one domain;
// energy_uj holds cumulative microjoules which wrap at
// max_energy_range_uj.
type SysfsReader struct {
	counter
	names []string // kernel-reported domain names
}

// NewSysfsReader scans root (typically DefaultPowercapPath) for
// package-level RAPL domains. It returns an error when none are found or
// they are unreadable (e.g. not an Intel host, or insufficient
// privileges).
func NewSysfsReader(root string) (*SysfsReader, error) {
	entries, err := os.ReadDir(root) // sorted by name, so domains are in path order
	if err != nil {
		return nil, fmt.Errorf("rapl: reading powercap root: %w", err)
	}
	type zone struct {
		name, energy string // energy: path of energy_uj
		maxRange     uint64 // wrap modulus in µJ
	}
	var zones []zone
	for _, e := range entries {
		// Top-level package domains are "intel-rapl:N" (no sub-zone
		// suffix such as "intel-rapl:0:1").
		if !strings.HasPrefix(e.Name(), "intel-rapl:") || strings.Count(e.Name(), ":") != 1 {
			continue
		}
		dir := filepath.Join(root, e.Name())
		name, err := readTrimmed(filepath.Join(dir, "name"))
		if err != nil {
			continue
		}
		if !strings.HasPrefix(name, "package") {
			continue
		}
		maxRange, err := readUint(filepath.Join(dir, "max_energy_range_uj"))
		if err != nil || maxRange == 0 {
			continue
		}
		energy := filepath.Join(dir, "energy_uj")
		if _, err := readUint(energy); err != nil {
			// Commonly EACCES without root.
			return nil, fmt.Errorf("rapl: %s unreadable (need root?): %w", dir, err)
		}
		zones = append(zones, zone{name: name, energy: energy, maxRange: maxRange})
	}
	if len(zones) == 0 {
		return nil, fmt.Errorf("rapl: no package domains under %s", root)
	}
	r := &SysfsReader{}
	r.read = func(d int) (uint64, error) { return readUint(zones[d].energy) }
	for _, z := range zones {
		if err := r.addDomain(z.maxRange, 1e-6); err != nil {
			return nil, err
		}
		r.names = append(r.names, z.name)
	}
	return r, nil
}

// Name returns the kernel-reported domain name.
func (r *SysfsReader) Name(domain int) string {
	if domain < 0 || domain >= len(r.names) {
		return ""
	}
	return r.names[domain]
}

func readTrimmed(path string) (string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	return strings.TrimSpace(string(b)), nil
}

func readUint(path string) (uint64, error) {
	s, err := readTrimmed(path)
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("rapl: parsing %s: %w", path, err)
	}
	return v, nil
}

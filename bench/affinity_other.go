//go:build !linux

package main

import "runtime"

// Without sched_setaffinity the spinners run unpinned, one per CPU, and
// the scheduler spreads them.

func allowedCPUs() ([]int, error) {
	cpus := make([]int, runtime.NumCPU())
	for i := range cpus {
		cpus[i] = i
	}
	return cpus, nil
}

func pinToCPU(int) error { return nil }

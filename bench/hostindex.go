package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
)

// Host speed indices. The host this benchmark runs on is shared, and
// the whole VM flips every few seconds to minutes between a quiet mode
// and a disturbed one in which system calls and scheduler hand-offs —
// what the service paths and the simulator are made of — take up to
// half as long again, while plain arithmetic and memory loads do not
// change (README.md, "Measuring on a shared host"). Medians over a run
// land on whichever mode had the majority, so they do not repeat.
//
// The bench therefore reads two small kernels that use none of the
// repository's code right before and after everything it times, and
// reports host time scaled to a reference speed: measured × ref / index.
// A change to the program moves the measured time and leaves the index
// alone; a change in the host moves both.
//
//   - sys: one write and one read on a socket pair, from one thread —
//     the cost of entering the kernel and moving a small message, which
//     is what the service paths are made of;
//   - sched: one runtime.Gosched — a pass through the Go scheduler, which
//     is what the simulator (an engine goroutine handing off to worker
//     goroutines) and the aggregator's poll loop spend their time around.

const (
	// Reference index values: what the kernels read on the development
	// sandbox in its quiet mode. They only fix the scale of the reported
	// numbers.
	sysRefNS   = 1100
	schedRefNS = 115

	indexRepeats = 3 // a reading is the best of this many loops
	sysLoops     = 500
	schedLoops   = 2000
)

// hostIndex holds the socket pair of the sys kernel.
type hostIndex struct {
	fds [2]int
	buf [64]byte
}

// reading is one pair of index values, in ns per operation.
type reading struct{ sys, sched float64 }

// scale is the factor that takes a host time measured between two
// readings to the reference speed.
type scale struct{ sys, sched float64 }

func scaleBetween(a, b reading) scale {
	return scale{sys: sysRefNS / ((a.sys + b.sys) / 2), sched: schedRefNS / ((a.sched + b.sched) / 2)}
}

func newHostIndex() (*hostIndex, error) {
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM, 0)
	if err != nil {
		return nil, fmt.Errorf("host index: socketpair: %w", err)
	}
	return &hostIndex{fds: fds}, nil
}

func (h *hostIndex) close() {
	syscall.Close(h.fds[0])
	syscall.Close(h.fds[1])
}

func (h *hostIndex) read() (reading, error) {
	r := reading{sys: 1e18, sched: 1e18}
	for k := 0; k < indexRepeats; k++ {
		t0 := time.Now()
		for i := 0; i < sysLoops; i++ {
			if _, err := syscall.Write(h.fds[0], h.buf[:]); err != nil {
				return r, fmt.Errorf("host index: %w", err)
			}
			if _, err := syscall.Read(h.fds[1], h.buf[:]); err != nil {
				return r, fmt.Errorf("host index: %w", err)
			}
		}
		if v := float64(time.Since(t0)) / sysLoops; v < r.sys {
			r.sys = v
		}
		t0 = time.Now()
		for i := 0; i < schedLoops; i++ {
			runtime.Gosched()
		}
		if v := float64(time.Since(t0)) / schedLoops; v < r.sched {
			r.sched = v
		}
	}
	return r, nil
}

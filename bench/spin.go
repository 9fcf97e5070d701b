package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sync/atomic"
	"syscall"
)

// Keep-awake spinners. On a virtual machine an idle CPU is handed back
// to the hypervisor, and waking it again costs more than most of the
// operations this benchmark times: every socket round trip and every
// goroutine hand-off wakes a thread on the other CPU. Whether that
// wake-up is fast or slow depends on what the CPU did in the last few
// hundred microseconds, so the same code runs in a fast and a slow mode
// that differ by a third and flip every few seconds — far more than the
// changes the benchmark exists to detect.
//
// The bench therefore starts one child process per CPU that does nothing
// but spin at the lowest scheduling priority. The CPUs never go idle, so
// every wake-up is the fast kind; the children get the CPU only when the
// benchmark has nothing to run, so they take nothing measurable from it.

// spinArg makes the program run as a spinner instead of a benchmark.
const spinArg = "-keep-awake-spinner"

// spinners are the running children. Closing their standard input makes
// them exit, so they cannot outlive the benchmark even if it is killed.
type spinners struct {
	stdin []io.Closer
	cmds  []*exec.Cmd
}

func startSpinners() (*spinners, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("spinners: %w", err)
	}
	cpus, err := allowedCPUs()
	if err != nil {
		return nil, fmt.Errorf("spinners: %w", err)
	}
	s := &spinners{}
	for _, cpu := range cpus {
		cmd := exec.Command(self, spinArg, fmt.Sprint(cpu))
		cmd.Stderr = os.Stderr
		in, err := cmd.StdinPipe()
		if err == nil {
			err = cmd.Start()
		}
		if err != nil {
			s.stop()
			return nil, fmt.Errorf("spinners: %w", err)
		}
		s.stdin = append(s.stdin, in)
		s.cmds = append(s.cmds, cmd)
	}
	return s, nil
}

// stop ends every spinner and waits for it.
func (s *spinners) stop() {
	for _, in := range s.stdin {
		in.Close()
	}
	for _, cmd := range s.cmds {
		_ = cmd.Wait() // the child exits 0 on end of input; nothing to do otherwise
	}
}

// spinMain is the child: pinned to one CPU, lowest priority, spinning
// until its standard input closes.
func spinMain(cpuArg string) int {
	var cpu int
	if _, err := fmt.Sscan(cpuArg, &cpu); err != nil {
		fmt.Fprintf(os.Stderr, "bench spinner: bad cpu %q\n", cpuArg)
		return 2
	}
	runtime.LockOSThread()
	if err := syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19); err != nil {
		fmt.Fprintf(os.Stderr, "bench spinner: %v\n", err)
		return 2
	}
	if err := pinToCPU(cpu); err != nil {
		fmt.Fprintf(os.Stderr, "bench spinner: %v\n", err)
		return 2
	}
	var done atomic.Bool
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin) // returns at end of input, however it comes
		done.Store(true)
	}()
	for !done.Load() {
	}
	return 0
}

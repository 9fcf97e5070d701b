package machine

import (
	"errors"
	"sync"
	"testing"
)

// InvalidatePlan makes m's next step replan from scratch. Called after
// every step from a StepHook (which runs on the stepper with the machine
// lock held), it turns m into the engine as it was before plans
// were reused: the referee for the edges internal/refmodel's scenario
// language cannot express (see plan_reuse_test.go).
func InvalidatePlan(m *Machine) { m.planValid = false }

// Charge runs body on a new goroutine as ctx's owner and releases the
// core after it; wg counts the goroutine until it exits. Every test
// goroutine that charges work runs through it: an Abort out of body is
// recovered and, unless it is the ErrStopped of a machine the test
// stopped, reported with t.Error, so one engine fault fails its own test
// instead of panicking the test binary and hiding every later result.
// Any other panic is raised again.
func Charge(t testing.TB, wg *sync.WaitGroup, ctx *CoreCtx, body func(*CoreCtx)) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				a, ok := r.(Abort)
				if !ok {
					panic(r)
				}
				if !errors.Is(a.Err, ErrStopped) {
					t.Error(a)
				}
			}
		}()
		defer ctx.Release()
		body(ctx)
	}()
}

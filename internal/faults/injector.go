package faults

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/msr"
	"repro/internal/rcr"
)

// Injector turns a Schedule into the concrete hook and gate functions
// the stack's fault seams accept. One Injector serves every layer of a
// run; its per-kind counters report how many injections actually fired.
//
// The clock decides which windows are active. The chaos harness feeds
// it an atomic from the machine's step hook, which runs under the
// machine's lock where machine.Now would deadlock; a real host would use
// a monotonic wall clock.
type Injector struct {
	sched Schedule
	clock func() time.Duration

	mu    sync.Mutex
	stuck map[int]uint64 // event index → latched counter value

	counts [NumKinds]atomic.Uint64
}

// NewInjector builds an injector for a schedule. Events are normalized
// defensively (fuzzed schedules are welcome): negative times clamp to
// zero, inverted windows collapse to empty, domains below -1 become -1,
// and actuation delays are clamped to [0, 1s] so a hostile schedule
// cannot park the control thread forever.
func NewInjector(sched Schedule, clock func() time.Duration) *Injector {
	events := make([]Event, len(sched.Events))
	copy(events, sched.Events)
	for i := range events {
		ev := &events[i]
		if ev.Kind < 0 || ev.Kind >= NumKinds {
			ev.Kind = Kind(uint64(ev.Kind) % uint64(NumKinds))
		}
		if ev.Domain < -1 {
			ev.Domain = -1
		}
		if ev.Start < 0 {
			ev.Start = 0
		}
		if ev.End < ev.Start {
			ev.End = ev.Start
		}
		if ev.Delay < 0 {
			ev.Delay = 0
		}
		if ev.Delay > time.Second {
			ev.Delay = time.Second
		}
	}
	sched.Events = events
	return &Injector{sched: sched, clock: clock, stuck: make(map[int]uint64)}
}

// Schedule returns the normalized schedule.
func (in *Injector) Schedule() Schedule { return in.sched }

// Injected returns how many times a kind has fired.
func (in *Injector) Injected(k Kind) uint64 {
	if k < 0 || k >= NumKinds {
		return 0
	}
	return in.counts[k].Load()
}

// MSRReadHook returns the register-file read hook: it corrupts reads of
// MSR_PKG_ENERGY_STATUS while an MSR fault window covers the socket.
// All other registers pass through untouched.
func (in *Injector) MSRReadHook() msr.ReadHook {
	return func(a msr.Access) (uint64, error) {
		if a.Core || a.Addr != msr.MSRPkgEnergyStatus {
			return a.Value, nil
		}
		now := in.clock()
		for i := range in.sched.Events {
			ev := &in.sched.Events[i]
			if !ev.covers(now, a.Index) {
				continue
			}
			switch ev.Kind {
			case MSRReadError:
				in.counts[MSRReadError].Add(1)
				return 0, fmt.Errorf("faults: injected rdmsr failure on socket %d at t=%v", a.Index, now)
			case MSRStuck:
				in.mu.Lock()
				v, ok := in.stuck[i]
				if !ok {
					v = a.Value
					in.stuck[i] = v
				}
				in.mu.Unlock()
				in.counts[MSRStuck].Add(1)
				return v, nil
			case MSRGarbage:
				in.counts[MSRGarbage].Add(1)
				// Seeded per (event, instant): deterministic for a given
				// trajectory, uncorrelated with the true counter.
				return splitmix64(in.sched.Seed^uint64(i)<<32^uint64(now)) & 0xffffffff, nil
			}
		}
		return a.Value, nil
	}
}

// SamplerTick returns the rcr tick gate: stall windows skip sample
// ticks, crash windows kill the sampler (node-wide events and events on
// any domain both apply — the sampler is one process).
func (in *Injector) SamplerTick() rcr.TickGate {
	return func(now time.Duration) rcr.TickAction {
		for i := range in.sched.Events {
			ev := &in.sched.Events[i]
			if now < ev.Start || now >= ev.End {
				continue
			}
			switch ev.Kind {
			case SamplerCrash:
				in.counts[SamplerCrash].Add(1)
				return rcr.TickDie
			case SamplerStall:
				in.counts[SamplerStall].Add(1)
				return rcr.TickSkip
			}
		}
		return rcr.TickRun
	}
}

// MeterGate returns the rcr meter gate: MeterDrop windows suppress the
// covered socket's publishes, tearing its blackboard row.
func (in *Injector) MeterGate() rcr.MeterGate {
	return func(now time.Duration, socket int, meter string) bool {
		for i := range in.sched.Events {
			ev := &in.sched.Events[i]
			if ev.Kind == MeterDrop && ev.covers(now, socket) {
				in.counts[MeterDrop].Add(1)
				return false
			}
		}
		return true
	}
}

// Actuation returns the maestro actuation hook: delay windows defer the
// mechanism flip by the event's Delay, drop windows lose it. Domain is
// ignored — actuation is a node-level act.
func (in *Injector) Actuation() func(now time.Duration, engage bool) (time.Duration, bool) {
	return func(now time.Duration, engage bool) (time.Duration, bool) {
		for i := range in.sched.Events {
			ev := &in.sched.Events[i]
			if now < ev.Start || now >= ev.End {
				continue
			}
			switch ev.Kind {
			case ActuationDrop:
				in.counts[ActuationDrop].Add(1)
				return 0, true
			case ActuationDelay:
				if ev.Delay > 0 {
					in.counts[ActuationDelay].Add(1)
					return ev.Delay, false
				}
			}
		}
		return 0, false
	}
}

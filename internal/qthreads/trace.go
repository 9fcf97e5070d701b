package qthreads

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"
)

// Scheduler event tracing. A Tracer observes the runtime's scheduling
// decisions — task execution, steals, throttle stops, idle parking — in
// virtual time, the raw material for studying how MAESTRO's decisions
// interleave with the application's phases. Tracing is disabled (nil)
// by default and costs one pointer check per event when off.

// EventKind labels a scheduler event.
type EventKind int

// Scheduler event kinds.
const (
	EvTaskStart EventKind = iota
	EvTaskEnd
	EvSteal
	EvThrottleEnter
	EvThrottleExit
	EvPark
	EvUnpark
)

// String returns the event name.
func (k EventKind) String() string {
	switch k {
	case EvTaskStart:
		return "task-start"
	case EvTaskEnd:
		return "task-end"
	case EvSteal:
		return "steal"
	case EvThrottleEnter:
		return "throttle-enter"
	case EvThrottleExit:
		return "throttle-exit"
	case EvPark:
		return "park"
	case EvUnpark:
		return "unpark"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one scheduler occurrence.
type Event struct {
	Time   time.Duration // virtual time
	Worker int
	Kind   EventKind
}

// Tracer receives scheduler events. Implementations must be safe for
// concurrent use; Observe is called from worker goroutines on their
// scheduling paths (in host code, so it costs no virtual time).
type Tracer interface {
	Observe(Event)
}

// Recorder is a bounded in-memory Tracer keeping the newest Capacity
// events.
type Recorder struct {
	mu     sync.Mutex
	events []Event
	next   int
	filled bool
}

// NewRecorder creates a Recorder holding up to capacity events
// (capacity <= 0 selects 1<<16).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = 1 << 16
	}
	return &Recorder{events: make([]Event, capacity)}
}

// Observe implements Tracer.
func (r *Recorder) Observe(e Event) {
	r.mu.Lock()
	r.events[r.next] = e
	r.next++
	if r.next == len(r.events) {
		r.next = 0
		r.filled = true
	}
	r.mu.Unlock()
}

// Events returns the recorded events oldest-first.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.filled {
		out := make([]Event, r.next)
		copy(out, r.events[:r.next])
		return out
	}
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[r.next:]...)
	out = append(out, r.events[:r.next]...)
	return out
}

// WriteCSV dumps the trace as CSV.
func (r *Recorder) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"t_seconds", "worker", "event"}); err != nil {
		return err
	}
	for _, e := range r.Events() {
		rec := []string{
			strconv.FormatFloat(e.Time.Seconds(), 'f', 6, 64),
			strconv.Itoa(e.Worker),
			e.Kind.String(),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// trace emits an event if a tracer is installed.
func (w *worker) trace(kind EventKind) {
	tr := w.rt.cfg.Tracer
	if tr == nil {
		return
	}
	tr.Observe(Event{Time: w.rt.m.Now(), Worker: w.id, Kind: kind})
}

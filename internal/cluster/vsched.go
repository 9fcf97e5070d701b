package cluster

import (
	"runtime"
	"slices"
	"time"
)

// vsched is the scenario runner's cooperative virtual-time scheduler.
// A task is an ordinary sequential function that calls sleep where the
// host-time runner it replaced called time.Sleep; exactly one task is
// runnable at any moment. run resumes the sleeper with the earliest
// wake time (ties: creation order), moves the clock there and waits for
// that task to sleep again or return, so a run is a pure function of
// its tasks whatever GOMAXPROCS is. Tasks are goroutines only to have a
// stack to park; every switch is a channel hand-off, so the race
// detector sees one logical thread.
type vsched struct {
	now    time.Duration
	tasks  []*vtask  // unfinished tasks, in creation order
	cur    *vtask    // the task running now
	parked chan bool // running task → run: true = sleeping, false = over
}

type vtask struct {
	wake   time.Duration
	killed bool
	resume chan struct{}
}

// clock reads virtual time.
func (s *vsched) clock() time.Duration { return s.now }

// spawn creates a task, runnable at the current instant after every
// task already due then.
func (s *vsched) spawn(fn func()) *vtask {
	t := &vtask{wake: s.now, resume: make(chan struct{})}
	s.tasks = append(s.tasks, t)
	go func() {
		defer func() { s.parked <- false }()
		if <-t.resume; !t.killed {
			fn()
		}
	}()
	return t
}

// sleep parks the running task for d of virtual time.
func (s *vsched) sleep(d time.Duration) {
	t := s.cur
	t.wake = s.now + max(d, 0)
	s.parked <- true
	if <-t.resume; t.killed {
		runtime.Goexit() // unwinds the task; spawn's defer tells run
	}
}

func (s *vsched) sleepUntil(at time.Duration) {
	if at > s.now {
		s.sleep(at - s.now)
	}
}

// kill ends a parked task where it sleeps — a process killed mid-step:
// it is resumed once more, now, only to unwind. Killing a finished task
// is a no-op.
func (s *vsched) kill(t *vtask) { t.killed, t.wake = true, s.now }

// run plays the tasks until every one has returned.
func (s *vsched) run() {
	for len(s.tasks) > 0 {
		next := 0
		for i, t := range s.tasks {
			if t.wake < s.tasks[next].wake {
				next = i
			}
		}
		s.cur = s.tasks[next]
		s.now = s.cur.wake // never in the past: wakes are set from now
		s.cur.resume <- struct{}{}
		if !<-s.parked {
			s.tasks = slices.Delete(s.tasks, next, next+1)
		}
	}
}

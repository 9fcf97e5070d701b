package qthreads

import (
	"sync"
	"sync/atomic"
)

// taskItem is a queued task: the closure plus the group accounting it
// reports completion to.
type taskItem struct {
	fn      Task
	group   *Group // parent's child group; nil for the root task
	counted bool   // whether it contributes to Runtime.pending
}

// shepherd is one locality domain (one per socket): a LIFO queue shared by
// the socket's workers, stolen from FIFO-end by other shepherds' workers
// (Sherwood scheduler, paper §III-A).
type shepherd struct {
	id int

	mu    sync.Mutex
	queue []*taskItem

	// active counts this shepherd's workers currently executing tasks;
	// the MAESTRO throttle gate compares it against the shepherd-local
	// limit.
	active atomic.Int32
}

// push adds a task at the LIFO end.
func (sh *shepherd) push(t *taskItem) {
	sh.mu.Lock()
	sh.queue = append(sh.queue, t)
	sh.mu.Unlock()
}

// pop removes the most recently pushed task (LIFO: constructive cache
// sharing within the socket).
func (sh *shepherd) pop() *taskItem {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	n := len(sh.queue)
	if n == 0 {
		return nil
	}
	t := sh.queue[n-1]
	sh.queue[n-1] = nil
	sh.queue = sh.queue[:n-1]
	return t
}

// stealFrom removes the oldest task (FIFO end): thieves take the work
// least likely to be cache-hot in the victim socket.
func (sh *shepherd) stealFrom() *taskItem {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if len(sh.queue) == 0 {
		return nil
	}
	t := sh.queue[0]
	sh.queue[0] = nil
	sh.queue = sh.queue[1:]
	return t
}

package machine

import "fmt"

// Incrementally-maintained engine indexes. The engine used to rescan
// m.cores several times per step (occupancy, busy demand, atomic groups,
// wait conditions, deadlines); these structures are updated at state
// transitions instead, so each step touches only the cores that matter.
// Every container below is allocation-free in steady state: lists and
// heaps keep their backing arrays, and emptied line groups are pooled.
//
// Ordering rules (docs/engine.md): every core list is kept in ascending
// core-id order so floating-point accumulations (bandwidth demand,
// max-min shares) happen in exactly the order the old full scans used —
// the simulated physics is bit-for-bit unchanged.

// socketIndex is the engine's incremental view of one socket.
type socketIndex struct {
	busy []*core // coreBusy cores, ascending id
}

// lineGroup is the set of cores currently in coreAtomic on one Line.
// Groups are pooled when they empty so contention churn never allocates.
type lineGroup struct {
	members []*core // ascending id
}

// insertCore inserts c into an id-ordered core list. Lists are bounded by
// the core count, so a linear shift beats any clever structure.
func insertCore(list []*core, c *core) []*core {
	i := len(list)
	for i > 0 && list[i-1].id > c.id {
		i--
	}
	list = append(list, nil)
	copy(list[i+1:], list[i:])
	list[i] = c
	return list
}

// removeCore removes c from an id-ordered core list, preserving order.
func removeCore(list []*core, c *core) []*core {
	for i, x := range list {
		if x == c {
			copy(list[i:], list[i+1:])
			return list[: len(list)-1 : cap(list)]
		}
	}
	panic(fmt.Sprintf("machine: core %d missing from engine index", c.id))
}

// indexBlockedLocked registers a core that just left coreRunning through a
// charging call. It must run after the core's state fields are set.
func (m *Machine) indexBlockedLocked(c *core) {
	m.planValid = false
	switch c.state {
	case coreBusy:
		si := &m.socks[c.socket]
		si.busy = insertCore(si.busy, c)
		m.totBusy++
	case coreAtomic:
		m.groupAddLocked(c)
		m.totAtomic++
	case coreSpinWait, coreIdleWait:
		if c.cond != nil {
			m.condWaiters = insertCore(m.condWaiters, c)
		}
		if c.deadline > 0 {
			m.dlPushLocked(c)
		}
	}
}

// unindexBlockedLocked removes a blocked core from the engine indexes. It
// must run before the core's state fields are cleared (it keys off state,
// line, cond and deadline).
func (m *Machine) unindexBlockedLocked(c *core) {
	m.planValid = false
	switch c.state {
	case coreBusy:
		si := &m.socks[c.socket]
		si.busy = removeCore(si.busy, c)
		m.totBusy--
	case coreAtomic:
		m.groupRemoveLocked(c)
		m.totAtomic--
	case coreSpinWait, coreIdleWait:
		if c.cond != nil {
			m.condWaiters = removeCore(m.condWaiters, c)
		}
		if c.dlIdx >= 0 {
			m.dlRemoveLocked(c)
		}
	}
}

// groupAddLocked adds a core to its line's contention group.
func (m *Machine) groupAddLocked(c *core) {
	g := m.lineGroups[c.line]
	if g == nil {
		if n := len(m.groupPool); n > 0 {
			g = m.groupPool[n-1]
			m.groupPool = m.groupPool[:n-1]
		} else {
			g = &lineGroup{}
		}
		m.lineGroups[c.line] = g
	}
	g.members = insertCore(g.members, c)
}

// groupRemoveLocked removes a core from its line's contention group,
// recycling the group when it empties.
func (m *Machine) groupRemoveLocked(c *core) {
	g := m.lineGroups[c.line]
	if g == nil {
		panic(fmt.Sprintf("machine: core %d has no line group", c.id))
	}
	g.members = removeCore(g.members, c)
	if len(g.members) == 0 {
		delete(m.lineGroups, c.line)
		m.groupPool = append(m.groupPool, g)
	}
}

// Deadline heap: a min-heap over cores in a wait state with a non-zero
// virtual-time deadline, keyed by deadline. c.dlIdx tracks the core's
// position (-1 when absent) so wakes remove in O(log n).

func (m *Machine) dlPushLocked(c *core) {
	c.dlIdx = len(m.dlHeap)
	m.dlHeap = append(m.dlHeap, c)
	m.dlUp(c.dlIdx)
}

func (m *Machine) dlRemoveLocked(c *core) {
	i := c.dlIdx
	last := len(m.dlHeap) - 1
	m.dlHeap[i] = m.dlHeap[last]
	m.dlHeap[i].dlIdx = i
	m.dlHeap[last] = nil
	m.dlHeap = m.dlHeap[:last]
	c.dlIdx = -1
	if i < last {
		m.dlDown(i)
		m.dlUp(i)
	}
}

func (m *Machine) dlUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if m.dlHeap[p].deadline <= m.dlHeap[i].deadline {
			break
		}
		m.dlSwap(p, i)
		i = p
	}
}

func (m *Machine) dlDown(i int) {
	n := len(m.dlHeap)
	for {
		l, r, min := 2*i+1, 2*i+2, i
		if l < n && m.dlHeap[l].deadline < m.dlHeap[min].deadline {
			min = l
		}
		if r < n && m.dlHeap[r].deadline < m.dlHeap[min].deadline {
			min = r
		}
		if min == i {
			return
		}
		m.dlSwap(min, i)
		i = min
	}
}

func (m *Machine) dlSwap(i, j int) {
	m.dlHeap[i], m.dlHeap[j] = m.dlHeap[j], m.dlHeap[i]
	m.dlHeap[i].dlIdx = i
	m.dlHeap[j].dlIdx = j
}

// Ticker heap: a min-heap over registered tickers keyed by their next
// virtual-time deadline, ties broken by registration id so same-instant
// tickers fire in the order they were added (docs/engine.md §Tickers).
// tk.heapIdx tracks position for RemoveTicker.

func (m *Machine) tkPushLocked(tk *ticker) {
	tk.heapIdx = len(m.tickerHeap)
	m.tickerHeap = append(m.tickerHeap, tk)
	m.tkUp(tk.heapIdx)
}

func (m *Machine) tkRemoveLocked(tk *ticker) {
	i := tk.heapIdx
	last := len(m.tickerHeap) - 1
	m.tickerHeap[i] = m.tickerHeap[last]
	m.tickerHeap[i].heapIdx = i
	m.tickerHeap[last] = nil
	m.tickerHeap = m.tickerHeap[:last]
	tk.heapIdx = -1
	if i < last {
		m.tkDown(i)
		m.tkUp(i)
	}
}

// tkFixLocked restores heap order after the root ticker's next deadline
// advanced (the common re-arm after a fire).
func (m *Machine) tkFixLocked(i int) { m.tkDown(i); m.tkUp(i) }

func (m *Machine) tkUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !m.tkLess(i, p) {
			break
		}
		m.tkSwap(p, i)
		i = p
	}
}

func (m *Machine) tkDown(i int) {
	n := len(m.tickerHeap)
	for {
		l, r, min := 2*i+1, 2*i+2, i
		if l < n && m.tkLess(l, min) {
			min = l
		}
		if r < n && m.tkLess(r, min) {
			min = r
		}
		if min == i {
			return
		}
		m.tkSwap(min, i)
		i = min
	}
}

func (m *Machine) tkLess(i, j int) bool {
	a, b := m.tickerHeap[i], m.tickerHeap[j]
	return a.next < b.next || a.next == b.next && a.id < b.id
}

func (m *Machine) tkSwap(i, j int) {
	m.tickerHeap[i], m.tickerHeap[j] = m.tickerHeap[j], m.tickerHeap[i]
	m.tickerHeap[i].heapIdx = i
	m.tickerHeap[j].heapIdx = j
}

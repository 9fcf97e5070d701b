package rcr

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"

	"repro/internal/machine"
)

// History records a time series of blackboard readings — the power /
// memory-concurrency / temperature timeline behind the paper's power
// utilization curves (§IV-B: "four test programs showed power
// utilization curves for which throttling ... could result in a total
// reduction"). It keeps the newest Capacity points in a ring buffer and
// can dump them as CSV for plotting.
type History struct {
	m        *machine.Machine
	bb       *Blackboard
	tickerID int

	mu     sync.Mutex
	points []HistoryPoint // ring buffer
	next   int            // write index
	filled bool
}

// HistoryPoint is one sampled instant.
type HistoryPoint struct {
	Time        time.Duration
	NodePower   float64
	SocketPower []float64
	Concurrency []float64
	Temperature []float64
}

// HistoryCapacity bounds the ring buffer (40 s of virtual time at one
// point per SamplePeriod).
const HistoryCapacity = 4000

// StartHistory begins recording the blackboard every SamplePeriod of
// virtual time into a ring of HistoryCapacity points.
func StartHistory(m *machine.Machine, bb *Blackboard) (*History, error) {
	h := &History{m: m, bb: bb, points: make([]HistoryPoint, HistoryCapacity)}
	id, err := m.AddTicker(SamplePeriod, h.record)
	if err != nil {
		return nil, err
	}
	h.tickerID = id
	return h, nil
}

// Stop ends recording; recorded points remain readable.
func (h *History) Stop() { h.m.RemoveTicker(h.tickerID) }

// resizeFloats returns s with length n, reusing its backing array when
// it fits.
func resizeFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// copyPoint deep-copies src into dst, reusing dst's backing arrays.
// Ring slots own their slices (record refills them in place), so every
// boundary crossing — in via Restore, out via Points — must copy.
func copyPoint(dst *HistoryPoint, src HistoryPoint) {
	dst.Time = src.Time
	dst.NodePower = src.NodePower
	dst.SocketPower = append(dst.SocketPower[:0], src.SocketPower...)
	dst.Concurrency = append(dst.Concurrency[:0], src.Concurrency...)
	dst.Temperature = append(dst.Temperature[:0], src.Temperature...)
}

// record runs on the machine's stepper each period (machine.TickerFunc:
// one at a time, never beside an owner; it must not block, charge or
// Stop). It refills the next ring slot in place — meter reads are seqlock
// loads and the slot's arrays are reused — so steady-state recording
// allocates nothing.
func (h *History) record(now time.Duration, _ *machine.Snapshot) {
	nSock := h.bb.Sockets()
	h.mu.Lock()
	pt := &h.points[h.next]
	pt.Time = now
	pt.NodePower = 0
	pt.SocketPower = resizeFloats(pt.SocketPower, nSock)
	pt.Concurrency = resizeFloats(pt.Concurrency, nSock)
	pt.Temperature = resizeFloats(pt.Temperature, nSock)
	for s := 0; s < nSock; s++ {
		pt.SocketPower[s], pt.Concurrency[s], pt.Temperature[s] = 0, 0, 0
		if m, ok := h.bb.Socket(s, MeterPower); ok {
			pt.SocketPower[s] = m.Value
			pt.NodePower += m.Value
		}
		if m, ok := h.bb.Socket(s, MeterMemConcurrency); ok {
			pt.Concurrency[s] = m.Value
		}
		if m, ok := h.bb.Socket(s, MeterTemperature); ok {
			pt.Temperature[s] = m.Value
		}
	}
	h.next++
	if h.next == len(h.points) {
		h.next = 0
		h.filled = true
	}
	h.mu.Unlock()
}

// Restore replaces the recorded series with points (oldest-first) — the
// crash-safe state path (internal/resilience): a restarted daemon
// resumes its timeline instead of starting an empty ring. When points
// exceeds the ring capacity only the newest capacity points are kept.
// The input is deep-copied; the caller keeps ownership of its slices.
func (h *History) Restore(points []HistoryPoint) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(points) > len(h.points) {
		points = points[len(points)-len(h.points):]
	}
	for i := range h.points {
		if i < len(points) {
			copyPoint(&h.points[i], points[i])
		} else {
			h.points[i] = HistoryPoint{}
		}
	}
	h.filled = len(points) == len(h.points)
	h.next = 0
	if !h.filled {
		h.next = len(points)
	}
}

// Points returns a deep copy of the recorded series oldest-first.
func (h *History) Points() []HistoryPoint {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := h.next
	if h.filled {
		n = len(h.points)
	}
	out := make([]HistoryPoint, n)
	k := 0
	if h.filled {
		for _, pt := range h.points[h.next:] {
			copyPoint(&out[k], pt)
			k++
		}
	}
	for _, pt := range h.points[:h.next] {
		copyPoint(&out[k], pt)
		k++
	}
	return out
}

// Len reports how many points are currently recorded.
func (h *History) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.filled {
		return len(h.points)
	}
	return h.next
}

// WriteCSV dumps the series as long-form CSV.
func (h *History) WriteCSV(w io.Writer) error {
	pts := h.Points()
	cw := csv.NewWriter(w)
	header := []string{"t_seconds", "node_watts"}
	nSock := h.bb.Sockets()
	for s := 0; s < nSock; s++ {
		header = append(header,
			fmt.Sprintf("pkg%d_watts", s),
			fmt.Sprintf("pkg%d_memconc", s),
			fmt.Sprintf("pkg%d_temp", s))
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, pt := range pts {
		rec := []string{
			strconv.FormatFloat(pt.Time.Seconds(), 'f', 6, 64),
			strconv.FormatFloat(pt.NodePower, 'f', 3, 64),
		}
		for s := 0; s < nSock; s++ {
			rec = append(rec,
				strconv.FormatFloat(pt.SocketPower[s], 'f', 3, 64),
				strconv.FormatFloat(pt.Concurrency[s], 'f', 3, 64),
				strconv.FormatFloat(pt.Temperature[s], 'f', 2, 64))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

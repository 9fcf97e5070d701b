package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one driver round share
// Round; Parent is the index of the enclosing span, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Round  int64  `json:"round"`
}

// maxSpans bounds the in-memory trace; later spans are counted, not
// kept, so a long traced run cannot exhaust memory.
const maxSpans = 400_000

// tracer records spans around the bench's calls into the program. A nil
// tracer is the untraced run: every method is a no-op, so the measured
// loops carry one pointer test per boundary and nothing else.
type tracer struct {
	t0 time.Time

	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its handle (-1 when not recorded).
func (t *tracer) begin(name string, parent int, round int64) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Round: round})
	return len(t.spans) - 1
}

func (t *tracer) end(h int) {
	if t == nil || h < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[h].End = now
	t.mu.Unlock()
}

// durations returns the duration in µs of every finished span with the
// given name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= s.Start && s.End != 0 {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// selfTimes returns, for every finished span with the given name, its
// duration minus the part of it its child spans cover, in µs.
func (t *tracer) selfTimes(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return selfTimes(t.spans, name)
}

func selfTimes(spans []span, name string) []float64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= s.Start && s.End != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	var out []float64
	for i, s := range spans {
		if s.Name != name || s.End == 0 {
			continue
		}
		out = append(out, float64(s.End-s.Start-covered(children[i], s.Start, s.End))/1e3)
	}
	return out
}

// covered is the length of the union of the intervals, clipped to
// [lo, hi]: overlapping children are not counted twice.
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, c := range iv {
		s, e := c[0], c[1]
		if s < cur {
			s = cur
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// write stores the trace as one JSON document.
func (t *tracer) write(path string, workload string, seed int64) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("trace: %w", cerr)
		}
	}()
	t.mu.Lock()
	defer t.mu.Unlock()
	w := bufio.NewWriter(f)
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Dropped  int    `json:"dropped_spans"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.dropped, t.spans}
	if err := json.NewEncoder(w).Encode(doc); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

package experiments

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// SidecarWriter streams RunTelemetry records as JSON Lines — one object
// per completed cell run, carrying the run identity, the full metrics
// snapshot and the MAESTRO decision journal. It is the standard sink
// for Lab.Telemetry: safe for concurrent cells, ordered by completion.
//
//	sw := experiments.NewSidecarWriter(f)
//	lab.Telemetry = sw.Record
//	... run specs ...
//	err := sw.Flush()
type SidecarWriter struct {
	mu  sync.Mutex
	w   *bufio.Writer
	err error // first write error; reported by Flush
}

// NewSidecarWriter wraps w. The caller owns closing w; call Flush when
// all runs have completed.
func NewSidecarWriter(w io.Writer) *SidecarWriter {
	return &SidecarWriter{w: bufio.NewWriter(w)}
}

// Record appends one run's telemetry as a JSONL line. It has the right
// signature to assign to Lab.Telemetry directly. Write errors are
// sticky and surface from Flush, so a broken sink never aborts a
// multi-hour experiment sweep.
func (sw *SidecarWriter) Record(rt RunTelemetry) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.err != nil {
		return
	}
	b, err := json.Marshal(rt)
	if err != nil {
		sw.err = fmt.Errorf("experiments: encoding sidecar record: %w", err)
		return
	}
	if _, err := sw.w.Write(append(b, '\n')); err != nil {
		sw.err = fmt.Errorf("experiments: writing sidecar record: %w", err)
	}
}

// Flush drains buffered records and returns the first error the writer
// encountered, if any.
func (sw *SidecarWriter) Flush() error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.err != nil {
		return sw.err
	}
	return sw.w.Flush()
}

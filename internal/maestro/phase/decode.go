package phase

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// The text sample format consumed by DecodeSamples: one sample per
// line, three whitespace-separated floats — power (W), memory bandwidth
// (bytes/s), outstanding memory references. Blank lines and lines
// starting with '#' are skipped. It is the interchange format for
// replaying recorded telemetry through the detector offline
// (`paperbench -phase-replay`), so the decoder must be total: any byte
// stream either decodes or returns an error, never panics and never
// produces non-finite samples.

// Decode limits. A replay file is operator input, not a firehose;
// bounding it keeps a malformed or hostile file from ballooning memory.
const (
	maxSampleLines = 1 << 20 // 1Mi samples ≈ 29 hours at a 100ms poll
	maxLineBytes   = 1 << 10
)

var (
	ErrTooManySamples = errors.New("phase: sample stream exceeds line limit")
	ErrLineTooLong    = errors.New("phase: sample line exceeds length limit")
)

// DecodeSamples parses a text sample stream. Every malformed line is an
// error naming the line number; values must be finite and non-negative
// (power and bandwidth are physical quantities — a negative or NaN
// reading is sensor garbage the caller must not feed the detector).
func DecodeSamples(r io.Reader) ([]Sample, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 256), maxLineBytes)
	var out []Sample
	line := 0
	for sc.Scan() {
		line++
		if line > maxSampleLines {
			return nil, ErrTooManySamples
		}
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 3 {
			return nil, fmt.Errorf("phase: line %d: want 3 fields (power bw conc), got %d", line, len(fields))
		}
		var vals [3]float64
		for i, f := range fields {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("phase: line %d: field %d: %v", line, i+1, err)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return nil, fmt.Errorf("phase: line %d: field %d: value %v out of range", line, i+1, v)
			}
			vals[i] = v
		}
		out = append(out, Sample{Power: vals[0], Bw: vals[1], Conc: vals[2]})
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, ErrLineTooLong
		}
		return nil, fmt.Errorf("phase: read: %w", err)
	}
	return out, nil
}

// Replay runs a decoded sample stream through a fresh detector and
// returns the indexes (0-based) of the samples on which a change point
// fired. It is the offline counterpart of the live control loop.
func Replay(samples []Sample) []int {
	d := New()
	var marks []int
	for i, s := range samples {
		if d.Observe(s) {
			marks = append(marks, i)
		}
	}
	return marks
}

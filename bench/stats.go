package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// median returns the median of xs (0 for an empty slice). xs is not
// modified.
func median(xs []float64) float64 {
	return quantile(sorted(xs), 0.5)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile reads the q-quantile off an ascending slice by linear
// interpolation between closest ranks.
func quantile(asc []float64, q float64) float64 {
	n := len(asc)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return asc[lo] + (asc[hi]-asc[lo])*(pos-float64(lo))
}

// tailQuantiles are the candidates for the reported tail, highest
// first.
var tailQuantiles = []float64{0.999, 0.99, 0.9}

// latency summarises one timing distribution by the benchmark's rule:
// the median, plus the highest percentile that still has at least ten
// samples beyond it (so the tail value is never a single outlier).
type latency struct {
	asc   []float64
	P50   float64
	Tail  float64 // value at TailQ; equals P50 when there are too few samples for any tail
	TailQ float64 // 0 when no percentile qualified
}

func summarize(xs []float64) latency {
	l := latency{asc: sorted(xs)}
	l.P50 = quantile(l.asc, 0.5)
	l.Tail, l.TailQ = l.tailUpTo(1)
	return l
}

// tailUpTo returns the highest qualifying percentile not above limit,
// so a metric named after one percentile never reports a higher one.
func (l latency) tailUpTo(limit float64) (v, q float64) {
	n := float64(len(l.asc))
	for _, q := range tailQuantiles {
		// Samples beyond the percentile's rank; the epsilon absorbs the
		// binary rounding of q (100 × 0.9 is not exactly 90).
		if q <= limit && n-math.Ceil(q*n-1e-9) >= 10 {
			return quantile(l.asc, q), q
		}
	}
	return l.P50, 0
}

func (l latency) String() string {
	if l.TailQ == 0 {
		return fmt.Sprintf("p50 %.2f (n=%d, too few samples for a tail)", l.P50, len(l.asc))
	}
	return fmt.Sprintf("p50 %.2f p%g %.2f (n=%d)", l.P50, l.TailQ*100, l.Tail, len(l.asc))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b with 0 for an empty base, so a layer that did no work
// reports 0 rather than NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

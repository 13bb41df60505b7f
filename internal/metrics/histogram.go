package metrics

import (
	"sync/atomic"
	"time"
)

// DefLatencyBuckets are the bounds of every Histogram, sized for operator
// and protocol latencies: roughly ×4 steps from sub-microsecond (a cached
// Next call) to seconds (a blocking sort or a stalled port).
var DefLatencyBuckets = [...]time.Duration{
	250 * time.Nanosecond,
	1 * time.Microsecond,
	4 * time.Microsecond,
	16 * time.Microsecond,
	64 * time.Microsecond,
	256 * time.Microsecond,
	1 * time.Millisecond,
	4 * time.Millisecond,
	16 * time.Millisecond,
	64 * time.Millisecond,
	256 * time.Millisecond,
	1 * time.Second,
	4 * time.Second,
}

// Histogram is a latency histogram over DefLatencyBuckets. Observe is a
// linear scan over the bounds plus three atomic adds — no locks, no
// allocations — so it sits directly on the operator Next path. The zero
// value is ready to use; the nil handle discards observations.
type Histogram struct {
	counts [len(DefLatencyBuckets) + 1]atomic.Int64 // per bucket; the last is +Inf
	sum    atomic.Int64                             // total observed ns
	total  atomic.Int64                             // observation count
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	h.sum.Add(int64(d))
	h.total.Add(1)
	i := 0
	for i < len(DefLatencyBuckets) && d > DefLatencyBuckets[i] {
		i++
	}
	h.counts[i].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Sum returns the total observed time.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// HistogramSnapshot is a point-in-time copy of a histogram, safe to
// aggregate and query after the fact. Counts are per-bucket (not
// cumulative); Counts has one more entry than Bounds, the overflow.
type HistogramSnapshot struct {
	Bounds   []int64 // upper bounds in ns, ascending
	Counts   []int64 // len(Bounds)+1; last entry is the +Inf bucket
	SumNanos int64
}

// Snapshot copies the current state. Nil histograms snapshot to a
// zero-observation snapshot over the same bounds.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: make([]int64, len(DefLatencyBuckets)),
		Counts: make([]int64, len(DefLatencyBuckets)+1),
	}
	for i, b := range DefLatencyBuckets {
		s.Bounds[i] = int64(b)
	}
	if h == nil {
		return s
	}
	s.SumNanos = h.sum.Load()
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Count returns the total number of observations in the snapshot.
func (s HistogramSnapshot) Count() int64 {
	var n int64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// Quantile estimates the q-quantile (0 <= q <= 1) in nanoseconds by
// linear interpolation within the containing bucket, the standard
// fixed-bucket estimator. Observations in the overflow bucket are
// attributed to the last finite bound — the estimate saturates there.
// Returns 0 for an empty snapshot.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	total := s.Count()
	if total == 0 || len(s.Bounds) == 0 {
		// len(s.Bounds) == 0 can only come from a hand-built snapshot — a
		// Histogram's has DefLatencyBuckets — but guard it so a zero-value
		// HistogramSnapshot with counts never indexes Bounds[-1].
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank <= next {
			if i >= len(s.Bounds) {
				// Overflow bucket: no upper bound to interpolate toward.
				return time.Duration(s.Bounds[len(s.Bounds)-1])
			}
			lo := int64(0)
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := s.Bounds[i]
			frac := (rank - cum) / float64(c)
			return time.Duration(float64(lo) + frac*float64(hi-lo))
		}
		cum = next
	}
	return time.Duration(s.Bounds[len(s.Bounds)-1])
}

// Mean returns the average observation, or 0 if empty.
func (s HistogramSnapshot) Mean() time.Duration {
	n := s.Count()
	if n == 0 {
		return 0
	}
	return time.Duration(s.SumNanos / n)
}

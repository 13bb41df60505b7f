package metrics

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(500 * time.Nanosecond) // all in bucket 1, (250ns, 1µs]
	}
	s := h.Snapshot()
	if s.Count() != 100 || s.Counts[1] != 100 || h.Count() != 100 {
		t.Fatalf("counts = %v, want all 100 in bucket 1", s.Counts)
	}
	if h.Sum() != 100*500*time.Nanosecond {
		t.Fatalf("sum = %v, want 50µs", h.Sum())
	}
	// Median of a uniform fill of (250ns, 1µs] interpolates to its middle.
	if q := s.Quantile(0.5); q != 625*time.Nanosecond {
		t.Fatalf("p50 = %v, want 625ns", q)
	}
	if m := s.Mean(); m != 500*time.Nanosecond {
		t.Fatalf("mean = %v, want 500ns", m)
	}
	// A bound is inclusive.
	h.Observe(time.Microsecond)
	if got := h.Snapshot().Counts[1]; got != 101 {
		t.Fatalf("bucket 1 = %d after observing its bound, want 101", got)
	}

	// Overflow saturates at the last bound.
	last := DefLatencyBuckets[len(DefLatencyBuckets)-1]
	h.Observe(2 * last)
	s = h.Snapshot()
	if s.Counts[len(DefLatencyBuckets)] != 1 {
		t.Fatalf("overflow bucket = %d, want 1", s.Counts[len(DefLatencyBuckets)])
	}
	if q := s.Quantile(1); q != last {
		t.Fatalf("p100 with overflow = %v, want saturation at %v", q, last)
	}
}

func TestHistogramEmptyAndNil(t *testing.T) {
	var h *Histogram
	h.Observe(time.Second)
	s := h.Snapshot()
	if s.Count() != 0 || s.Quantile(0.5) != 0 || s.Mean() != 0 {
		t.Fatal("nil histogram must snapshot empty")
	}
	if len(s.Bounds) != len(DefLatencyBuckets) || len(s.Counts) != len(DefLatencyBuckets)+1 {
		t.Fatalf("nil snapshot shape: %d bounds, %d counts", len(s.Bounds), len(s.Counts))
	}
	var zero Histogram
	if got := zero.Snapshot().Quantile(0.99); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
}

// TestHistogramZeroValue checks that a zero Histogram is ready to use and
// that a snapshot with counts but no bounds cannot index Bounds[-1].
func TestHistogramZeroValue(t *testing.T) {
	var h Histogram
	h.Observe(time.Millisecond)
	if got := h.Snapshot().Quantile(0.99); got <= 0 {
		t.Fatalf("quantile after observe = %v, want > 0", got)
	}
	// A hand-built snapshot with counts but no bounds must not panic.
	s := HistogramSnapshot{Counts: []int64{3}, SumNanos: 9}
	if got := s.Quantile(0.5); got != 0 {
		t.Fatalf("boundless snapshot quantile = %v, want 0", got)
	}
}

func TestHistogramNegativeClampedToZero(t *testing.T) {
	var h Histogram
	h.Observe(-time.Second)
	s := h.Snapshot()
	if s.Counts[0] != 1 || s.SumNanos != 0 {
		t.Fatalf("negative observation not clamped: %+v", s)
	}
}

// TestHistogramConcurrentUpdates drives one histogram from many
// goroutines; under -race this proves Observe and Snapshot are safe to
// run concurrently, and the final counts prove no update was lost.
func TestHistogramConcurrentUpdates(t *testing.T) {
	var h Histogram
	const goroutines, per = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(rng.Int63n(int64(10 * time.Millisecond))))
			}
		}(int64(g))
	}
	// Snapshot concurrently with the writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			_ = h.Snapshot().Quantile(0.95)
		}
	}()
	wg.Wait()
	if n := h.Snapshot().Count(); n != goroutines*per {
		t.Fatalf("lost observations: %d, want %d", n, goroutines*per)
	}
}

// TestObserveZeroAlloc pins the hot-path contract: Observe allocates
// nothing, enabled or nil.
func TestObserveZeroAlloc(t *testing.T) {
	h := &Histogram{}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(3 * time.Microsecond) }); n != 0 {
		t.Fatalf("Observe allocates %v per call", n)
	}
	var nilH *Histogram
	if n := testing.AllocsPerRun(1000, func() { nilH.Observe(3 * time.Microsecond) }); n != 0 {
		t.Fatalf("nil Observe allocates %v per call", n)
	}
	c := NewRegistry().Counter("x_total", "x")
	if n := testing.AllocsPerRun(1000, func() { c.Add(1) }); n != 0 {
		t.Fatalf("Counter.Add allocates %v per call", n)
	}
	g := NewRegistry().Gauge("g", "g")
	if n := testing.AllocsPerRun(1000, func() { g.Add(1) }); n != 0 {
		t.Fatalf("Gauge.Add allocates %v per call", n)
	}
}

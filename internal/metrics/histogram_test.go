package metrics

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	h := NewHistogram([]time.Duration{time.Microsecond, 10 * time.Microsecond, 100 * time.Microsecond})
	for i := 0; i < 100; i++ {
		h.Observe(500 * time.Nanosecond) // all in bucket 0
	}
	s := h.Snapshot()
	if s.Count() != 100 || s.Counts[0] != 100 {
		t.Fatalf("counts = %v, want all 100 in bucket 0", s.Counts)
	}
	// Median of a uniform fill of (0, 1µs] interpolates to ~500ns.
	if q := s.Quantile(0.5); q < 400*time.Nanosecond || q > 600*time.Nanosecond {
		t.Fatalf("p50 = %v, want ~500ns", q)
	}
	if m := s.Mean(); m != 500*time.Nanosecond {
		t.Fatalf("mean = %v, want 500ns", m)
	}

	// Overflow saturates at the last bound.
	h.Observe(time.Second)
	s = h.Snapshot()
	if s.Counts[3] != 1 {
		t.Fatalf("overflow bucket = %d, want 1", s.Counts[3])
	}
	if q := s.Quantile(1); q != 100*time.Microsecond {
		t.Fatalf("p100 with overflow = %v, want saturation at 100µs", q)
	}
}

func TestHistogramEmptyAndNil(t *testing.T) {
	var h *Histogram
	h.Observe(time.Second)
	s := h.Snapshot()
	if s.Count() != 0 || s.Quantile(0.5) != 0 || s.Mean() != 0 {
		t.Fatal("nil histogram must snapshot empty")
	}
	if got := NewHistogram(nil).Snapshot().Quantile(0.99); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
}

// TestHistogramEmptyBucketSlice pins the fix for a constructor hole: an
// empty non-nil bucket slice used to build a zero-bound histogram whose
// Quantile indexed Bounds[-1] after the first Observe.
func TestHistogramEmptyBucketSlice(t *testing.T) {
	h := NewHistogram([]time.Duration{})
	if len(h.bounds) != len(DefLatencyBuckets) {
		t.Fatalf("empty bucket slice must fall back to defaults, got %d bounds", len(h.bounds))
	}
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
	h := NewHistogram(nil)
	h.Observe(-time.Second)
	s := h.Snapshot()
	if s.Counts[0] != 1 || s.SumNanos != 0 {
		t.Fatalf("negative observation not clamped: %+v", s)
	}
}

func TestHistogramBadBoundsPanic(t *testing.T) {
	for _, bad := range [][]time.Duration{
		{0, time.Second},
		{time.Second, time.Second},
		{2 * time.Second, time.Second},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bounds %v must panic", bad)
				}
			}()
			NewHistogram(bad)
		}()
	}
}

// TestHistogramConcurrentUpdates drives one histogram from many
// goroutines; under -race this proves Observe and Snapshot are safe to
// run concurrently, and the final counts prove no update was lost.
func TestHistogramConcurrentUpdates(t *testing.T) {
	h := NewHistogram(nil)
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
	h := NewHistogram(nil)
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

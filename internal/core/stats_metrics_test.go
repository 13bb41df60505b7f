package core

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/record"
)

// nopIter yields nothing; it exists to measure the wrapper itself.
type nopIter struct{ schema *record.Schema }

func (n *nopIter) Open() error              { return nil }
func (n *nopIter) NextBatch(b *Batch) error { b.Reset(); return nil }
func (n *nopIter) Close() error             { return nil }
func (n *nopIter) Schema() *record.Schema   { return n.schema }

// TestInstrumentedNextZeroAlloc pins the acceptance criterion: with
// metrics disabled (nil histogram, nil tracer) the instrumented NextBatch
// path allocates nothing, and attaching a histogram still allocates
// nothing — Observe is atomic adds over preallocated buckets.
func TestInstrumentedNextZeroAlloc(t *testing.T) {
	b := NewBatch(1)
	bare := Instrument(&nopIter{}, "nop")
	if n := testing.AllocsPerRun(1000, func() {
		if err := bare.NextBatch(b); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("disabled-metrics Next allocates %v per call", n)
	}

	withHist := Instrument(&nopIter{}, "nop").
		WithHistogram(metrics.NewRegistry().Histogram("volcano_op_next_seconds", "op latency", nil, metrics.Label{Key: "op", Value: "nop"}))
	if n := testing.AllocsPerRun(1000, func() {
		if err := withHist.NextBatch(b); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("histogram-enabled Next allocates %v per call", n)
	}
}

// TestInstrumentedHistogramObserves checks the wiring: every NextBatch
// call lands one observation, shared across sibling wrappers like OpStats.
func TestInstrumentedHistogramObserves(t *testing.T) {
	h := metrics.NewHistogram(nil)
	st := &OpStats{}
	a := InstrumentWith(&nopIter{}, "op", st).WithHistogram(h)
	b := InstrumentWith(&nopIter{}, "op", st).WithHistogram(h)
	batch := NewBatch(1)
	for i := 0; i < 5; i++ {
		if err := a.NextBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := b.NextBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if h.Snapshot().Count() != 8 {
		t.Fatalf("histogram observed %d NextBatch calls, want 8", h.Snapshot().Count())
	}
	s := h.Snapshot()
	if s.Quantile(0.5) <= 0 {
		t.Fatal("median of real Next timings must be positive")
	}
	if a.Histogram() != h {
		t.Fatal("Histogram() accessor must return the attached histogram")
	}
}

package core

import (
	"testing"
	"time"

	"repro/internal/record"
)

// nopIter yields nothing; it exists to measure the wrapper itself.
type nopIter struct{ schema *record.Schema }

func (n *nopIter) Open() error              { return nil }
func (n *nopIter) NextBatch(b *Batch) error { b.Reset(); return nil }
func (n *nopIter) Close() error             { return nil }
func (n *nopIter) Schema() *record.Schema   { return n.schema }

// TestInstrumentedNextZeroAlloc pins the acceptance criterion: the
// instrumented NextBatch path, latency histogram included, allocates
// nothing — Observe is atomic adds over the OpStats' fixed buckets.
func TestInstrumentedNextZeroAlloc(t *testing.T) {
	b := NewBatch(1)
	it := Instrument(&nopIter{}, "nop")
	if n := testing.AllocsPerRun(1000, func() {
		if err := it.NextBatch(b); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("instrumented Next allocates %v per call", n)
	}
}

// TestInstrumentedHistogramObserves checks that the OpStats histogram is
// the one probe: sibling wrappers share it, its count is the calls and
// its sum the next time.
func TestInstrumentedHistogramObserves(t *testing.T) {
	st := &OpStats{}
	a := InstrumentWith(&nopIter{}, "op", st)
	b := InstrumentWith(&nopIter{}, "op", st)
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
	snap, lat := st.Snapshot(), st.Next.Snapshot()
	if snap.NextCalls != 8 || lat.Count() != snap.NextCalls {
		t.Fatalf("calls = %d, latency count = %d, want 8 each", snap.NextCalls, lat.Count())
	}
	if time.Duration(lat.SumNanos) != snap.NextTime {
		t.Fatalf("latency sum = %v, next_ns = %v, want equal", time.Duration(lat.SumNanos), snap.NextTime)
	}
	if lat.Quantile(0.5) <= 0 {
		t.Fatal("median of real Next timings must be positive")
	}
}

package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/record"
	"repro/internal/trace"
)

// OpStats holds one operator's runtime counters. All fields are atomic so
// one OpStats value can be shared by the parallel instances of a plan node
// — the per-producer subtrees an exchange instantiates — and updated
// concurrently without coordination beyond the counter itself.
type OpStats struct {
	Rows   atomic.Int64 // records returned by NextBatch
	Opens  atomic.Int64 // Open invocations (parallel instances add up)
	Closes atomic.Int64 // Close invocations

	// Next is the NextBatch latency distribution. Its count is the
	// node's NextBatch calls (including the EOS call) and its sum the
	// cumulative wall time inside them: each call is counted once.
	Next metrics.Histogram

	OpenNanos  atomic.Int64 // wall time inside Open
	CloseNanos atomic.Int64 // wall time inside Close
	Arena      atomic.Bool  // output records go to an arena, not the pool
}

// OpStatsSnapshot is a plain-value copy of an OpStats, safe to compare,
// print and store after the query has finished — and, because every
// OpStats field is atomic, equally safe to take mid-flight: a live
// observability view (the serving layer's /debug/queries) snapshots the
// operators of a running query with the same call. The JSON tags are the
// wire shape of that view; durations marshal as nanosecond integers.
type OpStatsSnapshot struct {
	Rows      int64         `json:"rows"`
	NextCalls int64         `json:"calls"`
	Opens     int64         `json:"opens"`
	Closes    int64         `json:"closes"`
	OpenTime  time.Duration `json:"open_ns"`
	NextTime  time.Duration `json:"next_ns"`
	CloseTime time.Duration `json:"close_ns"`
}

// Snapshot reads all counters.
func (s *OpStats) Snapshot() OpStatsSnapshot {
	return OpStatsSnapshot{
		Rows:      s.Rows.Load(),
		NextCalls: s.Next.Count(),
		Opens:     s.Opens.Load(),
		Closes:    s.Closes.Load(),
		OpenTime:  time.Duration(s.OpenNanos.Load()),
		NextTime:  s.Next.Sum(),
		CloseTime: time.Duration(s.CloseNanos.Load()),
	}
}

// String renders the snapshot in the compact form used by EXPLAIN ANALYZE.
func (s OpStatsSnapshot) String() string {
	return fmt.Sprintf("rows=%d calls=%d opens=%d open=%v next=%v close=%v",
		s.Rows, s.NextCalls, s.Opens,
		s.OpenTime.Round(time.Microsecond),
		s.NextTime.Round(time.Microsecond),
		s.CloseTime.Round(time.Microsecond))
}

// Instrumented is the instrumentation adapter: a plain iterator that
// forwards to an inner iterator while counting rows, calls and wall time.
// Because it is itself an iterator it composes with everything else —
// including exchange, whose producer subtrees may each carry their own
// wrapper updating one shared OpStats.
//
// The uninstrumented path pays nothing: plans built without analysis never
// allocate or touch an Instrumented.
//
// With a tracer attached (WithTracer) the wrapper additionally records
// its Open, NextBatch and Close calls as spans on a private trace track,
// reusing the wall-time measurements it already takes for OpStats — so
// tracing adds no extra clock reads, and a nil tracer costs one branch.
type Instrumented struct {
	inner Iterator
	name  string
	st    *OpStats

	tracer    *trace.Tracer
	tk        *trace.Track
	openName  string
	closeName string
}

// Instrument wraps it with a fresh, private OpStats.
func Instrument(it Iterator, name string) *Instrumented {
	return InstrumentWith(it, name, &OpStats{})
}

// InstrumentWith wraps it updating the given (possibly shared) OpStats.
func InstrumentWith(it Iterator, name string, st *OpStats) *Instrumented {
	return &Instrumented{inner: it, name: name, st: st}
}

// WithTracer attaches a tracer: the wrapper's calls become spans on a
// track registered at first Open (in the goroutine that runs the
// operator, so parallel instances get one track each). Returns i.
func (i *Instrumented) WithTracer(t *trace.Tracer) *Instrumented {
	i.tracer = t
	return i
}

// Name returns the label given at wrap time.
func (i *Instrumented) Name() string { return i.name }

// Stats returns the live counters (shared with any sibling wrappers).
func (i *Instrumented) Stats() *OpStats { return i.st }

// Schema implements Iterator.
func (i *Instrumented) Schema() *record.Schema { return i.inner.Schema() }

// UseArena implements ArenaOutput: it forwards the consumer's opt-in to
// the wrapped operator and, if that took it, marks the counters.
func (i *Instrumented) UseArena() bool {
	ok := UseArena(i.inner)
	if ok {
		i.st.Arena.Store(true)
	}
	return ok
}

// Open implements Iterator.
func (i *Instrumented) Open() error {
	if i.tracer.Enabled() && i.tk == nil {
		i.tk = i.tracer.NewTrack("op:" + i.name)
		i.openName = i.name + ".open"
		i.closeName = i.name + ".close"
	}
	start := time.Now()
	err := i.inner.Open()
	d := time.Since(start)
	i.st.OpenNanos.Add(int64(d))
	i.st.Opens.Add(1)
	i.tk.SpanAt("op", i.openName, start, d)
	return err
}

// NextBatch implements Iterator: the wrapper times the whole batch call
// and counts every delivered record, so EXPLAIN ANALYZE row counts agree
// at every batch size while the call count reflects the amortisation.
// One clock pair and four atomic adds: the rows, and the latency
// histogram's count, sum and bucket.
func (i *Instrumented) NextBatch(b *Batch) error {
	start := time.Now()
	err := i.inner.NextBatch(b)
	d := time.Since(start)
	i.st.Rows.Add(int64(b.Len()))
	i.st.Next.Observe(d)
	i.tk.SpanAt("op", i.name, start, d)
	return err
}

// Close implements Iterator.
func (i *Instrumented) Close() error {
	start := time.Now()
	err := i.inner.Close()
	d := time.Since(start)
	i.st.CloseNanos.Add(int64(d))
	i.st.Closes.Add(1)
	i.tk.SpanAt("op", i.closeName, start, d)
	return err
}

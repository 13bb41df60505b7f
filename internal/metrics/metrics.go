// Package metrics is the process-wide metrics layer: a dependency-free
// registry of counters, gauges and fixed-bucket latency histograms with
// Prometheus text exposition (version 0.0.4), built so the hooks can stay
// wired into every hot path permanently:
//
//   - Updates are single atomic adds: no locks, no allocations, no time
//     formatting on the update path.
//   - A nil *Registry is the disabled registry. It hands out nil
//     instrument handles whose methods are a nil-check and return, exactly
//     like the nil tracer in internal/trace — instrumented code pays one
//     predictable branch when metrics are off.
//   - Instruments are process-lifetime aggregates (the Prometheus model):
//     a scraper polls GET /metrics while queries run and computes rates
//     and deltas itself. Per-query attribution stays with EXPLAIN ANALYZE;
//     this layer is the always-on view across queries.
//
// Registration is get-or-create: asking twice for the same family and
// label set returns the same instrument, so concurrent callers (or
// successive benchmark passes) share one time series instead of fighting
// over a name. Callback collectors (SetCounterFunc,
// SetGaugeFunc) read state that a subsystem already maintains — e.g. the
// buffer pool's counters — at scrape time, for zero additional cost on
// the subsystem's own hot path; re-registering a callback replaces it, so
// a fresh pool can take over its families.
package metrics

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one constant name/value pair attached to an instrument.
// Labels distinguish the children of a family, e.g. phase="plan" under
// volcano_server_query_phase_seconds.
type Label struct {
	Key, Value string
}

// familyKind discriminates what a family holds.
type familyKind uint8

const (
	kindCounter familyKind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
	kindHistogramFunc
)

// typeName returns the Prometheus TYPE keyword.
func (k familyKind) typeName() string {
	switch k {
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram, kindHistogramFunc:
		return "histogram"
	default:
		return "counter"
	}
}

// child is one instrument of a family, identified by its rendered labels.
type child struct {
	labels  string // rendered {k="v",...} or ""
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// family is one metric name: help text, type, and either children
// (instruments) or a scrape-time callback.
type family struct {
	name, help string
	kind       familyKind
	fn         func() float64
	hfn        func() HistogramSnapshot
	children   map[string]*child
}

// Registry holds the families. A nil Registry is valid and disabled.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry creates an empty, enabled registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// Enabled reports whether the registry records anything.
func (r *Registry) Enabled() bool { return r != nil }

// lookup returns the family, creating it if absent; panics on a type
// conflict (a programmer error — metric names are static).
func (r *Registry) lookup(name, help string, kind familyKind) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, children: map[string]*child{}}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("metrics: %s re-registered as %s (was %s)", name, kind.typeName(), f.kind.typeName()))
	}
	return f
}

// Counter returns the counter with the given name and labels, creating
// family and child as needed. The nil registry returns a nil handle.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindCounter)
	c := f.child(labels)
	if c.counter == nil {
		c.counter = &Counter{}
	}
	return c.counter
}

// Gauge returns the gauge with the given name and labels.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindGauge)
	c := f.child(labels)
	if c.gauge == nil {
		c.gauge = &Gauge{}
	}
	return c.gauge
}

// Histogram returns the histogram with the given name and labels.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindHistogram)
	c := f.child(labels)
	if c.hist == nil {
		c.hist = &Histogram{}
	}
	return c.hist
}

// SetCounterFunc registers (or replaces) a callback-valued counter: the
// function is invoked at scrape time and must return a monotonically
// non-decreasing value. Use it to expose counters a subsystem already
// maintains without double counting on its hot path.
func (r *Registry) SetCounterFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindCounterFunc)
	f.fn = fn
}

// SetGaugeFunc registers (or replaces) a callback-valued gauge.
func (r *Registry) SetGaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindGaugeFunc)
	f.fn = fn
}

// SetHistogramFunc registers (or replaces) a callback-valued histogram:
// the function is invoked at scrape time and must return a snapshot with
// non-decreasing cumulative contents. Use it for distributions another
// subsystem already maintains — e.g. the runtime's GC pause histogram —
// without mirroring every observation into a registry Histogram.
func (r *Registry) SetHistogramFunc(name, help string, fn func() HistogramSnapshot) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindHistogramFunc)
	f.hfn = fn
}

// child returns the instrument slot for a label set, creating it if new.
func (f *family) child(labels []Label) *child {
	key := renderLabels(labels)
	c, ok := f.children[key]
	if !ok {
		c = &child{labels: key}
		f.children[key] = c
	}
	return c
}

// renderLabels produces the canonical {k="v",...} form, keys sorted, or
// "" for no labels. The rendered string doubles as the child map key.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(l.Value))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// escapeLabelValue applies the exposition-format escapes.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var sb strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// Counter is a monotonically increasing counter. The nil handle (from a
// nil registry) discards updates.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n must be >= 0).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for the nil handle).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set stores an absolute value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Inc increments by one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec decrements by one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value (0 for the nil handle).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// formatValue renders a sample value: integers without exponent, other
// floats in Go's shortest round-trip form (matches Prometheus output).
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

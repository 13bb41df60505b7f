package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// maxTracedOps bounds the operations per client whose spans are kept, so a
// traced pass of sub-millisecond queries does not write a trace too large
// to open. Every traced operation still feeds the per-layer metrics.
const maxTracedOps = 2000

// maxAnalyzeTexts bounds the operations per client whose EXPLAIN ANALYZE
// text is kept in the trace.
const maxAnalyzeTexts = 50

// event is one Chrome trace-event "complete" span.
type event struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs since the tracer was made
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// tracer keeps the spans of the traced pass in memory until the run ends.
// Client-side spans sit on thread ci of process 1; the server's own phase
// account of the same query sits on thread ci of process 2. Every span
// carries the query id, which is also the X-Volcano-Query-Id the server
// saw, so the server's logs and debug views join on it.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	events []event
	ops    map[int]int // per client
}

func newTracer() *tracer { return &tracer{origin: time.Now(), ops: make(map[int]int)} }

func (t *tracer) operation(ci int, id string, r *request, s *sample) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.ops[ci]
	t.ops[ci] = n + 1
	if n >= maxTracedOps {
		return
	}
	at := func(d time.Duration) float64 { return float64(s.start.Add(d).Sub(t.origin)) / 1e3 }
	span := func(pid int, name string, from, to float64, args map[string]any) {
		if args == nil {
			args = map[string]any{}
		}
		args["query_id"] = id
		t.events = append(t.events, event{Name: name, Cat: "query", Ph: "X", Ts: from, Dur: to - from, Pid: pid, Tid: ci, Args: args})
	}
	args := map[string]any{"plan": r.plan, "rows": s.trailer.Rows}
	if s.err != nil {
		args["error"] = s.err.Error()
	}
	if n < maxAnalyzeTexts && s.trailer.Analyze != "" {
		args["analyze"] = s.trailer.Analyze
	}
	end := s.lastByte
	if end == 0 { // failed before the body was read
		end = time.Since(s.start)
	}
	span(1, "operation", at(0), at(end), args)
	if s.err != nil {
		return
	}
	span(1, "ttfb", at(0), at(s.ttfb), nil)
	span(1, "first_row", at(s.ttfb), at(s.firstRow), nil)
	span(1, "stream", at(s.firstRow), at(s.lastByte), nil)

	// The server reports durations, not instants: lay its four phases end
	// to end from the moment the request was sent.
	cur := at(0)
	for _, ph := range []struct {
		name string
		ms   float64
	}{
		{"plan", s.trailer.Phases.PlanMs}, {"queued", s.trailer.Phases.QueuedMs},
		{"execute", s.trailer.Phases.ExecuteMs}, {"stream", s.trailer.Phases.StreamMs},
	} {
		span(2, "server."+ph.name, cur, cur+ph.ms*1e3, nil)
		cur += ph.ms * 1e3
	}
}

// write stores the spans as Chrome trace-event JSON, which Perfetto and
// chrome://tracing open.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	meta := func(pid int, name string) event {
		return event{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": name}}
	}
	all := append([]event{meta(1, "load generator"), meta(2, "volcano-serve phases")}, t.events...)
	b, err := json.Marshal(map[string]any{"traceEvents": all, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

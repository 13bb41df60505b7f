package server

import (
	"context"
	"io"
	"log/slog"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/plan"
)

// slowLogEntry is one completed query's post-mortem: identity, the
// normalized plan, outcome, lifecycle phase timings, and the final
// per-operator snapshot. It is the JSON schema of both the in-memory
// ring (GET /debug/slowlog) and the file sink (-query-log), and its
// query_id matches the X-Volcano-Query-Id response header and the
// trailer, so logs, traces and client-side records join on one key.
type slowLogEntry struct {
	Time      time.Time        `json:"ts"`
	QueryID   string           `json:"query_id"`
	Kind      string           `json:"kind"` // "query" or "fragment"
	Fragment  *fragmentRef     `json:"fragment,omitempty"`
	Plan      string           `json:"plan"`
	Batch     int              `json:"batch"`
	CacheHit  bool             `json:"plan_cache_hit"`
	Outcome   string           `json:"outcome"` // "ok", "error", or "canceled"
	Error     string           `json:"error,omitempty"`
	Rows      int64            `json:"rows"`
	ElapsedMs float64          `json:"elapsed_ms"`
	Phases    phaseMillis      `json:"phases"`
	Operators *plan.OpSnapshot `json:"operators,omitempty"`
	// Resources is the final attributed resource bill, identical to the
	// trailer's resources block for the same query.
	Resources *core.ResourceSnapshot `json:"resources,omitempty"`
}

// slowLog is the structured slow-query log: a bounded in-memory ring of
// the most recent entries plus an optional slog JSON sink (a file, in
// volcano-serve). Recording is per *logged* query — the streaming hot
// path never touches it — so a mutex is plenty.
type slowLog struct {
	mu   sync.Mutex
	ring []slowLogEntry // filled circularly; len(ring) = capacity
	n    int            // entries ever recorded
	lg   *slog.Logger   // nil = ring only
}

// defaultSlowLogCapacity bounds the in-memory ring when the config does
// not say otherwise.
const defaultSlowLogCapacity = 128

func newSlowLog(capacity int, sink io.Writer) *slowLog {
	if capacity <= 0 {
		capacity = defaultSlowLogCapacity
	}
	l := &slowLog{ring: make([]slowLogEntry, capacity)}
	if sink != nil {
		l.lg = slog.New(slog.NewJSONHandler(sink, nil))
	}
	return l
}

// record appends one entry to the ring and, when a sink is attached,
// emits it as one slog JSON line.
func (l *slowLog) record(e slowLogEntry) {
	l.mu.Lock()
	l.ring[l.n%len(l.ring)] = e
	l.n++
	lg := l.lg
	l.mu.Unlock()

	if lg != nil {
		lg.LogAttrs(context.Background(), slog.LevelWarn, "slow query",
			slog.String("query_id", e.QueryID),
			slog.String("kind", e.Kind),
			slog.Any("fragment", e.Fragment),
			slog.String("plan", e.Plan),
			slog.Int("batch", e.Batch),
			slog.Bool("plan_cache_hit", e.CacheHit),
			slog.String("outcome", e.Outcome),
			slog.String("error", e.Error),
			slog.Int64("rows", e.Rows),
			slog.Float64("elapsed_ms", e.ElapsedMs),
			slog.Any("phases", e.Phases),
			slog.Any("operators", e.Operators),
			slog.Any("resources", e.Resources),
		)
	}
}

// entries returns the retained entries, oldest first.
func (l *slowLog) entries() []slowLogEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	size := len(l.ring)
	kept := l.n
	if kept > size {
		kept = size
	}
	out := make([]slowLogEntry, 0, kept)
	for i := l.n - kept; i < l.n; i++ {
		out = append(out, l.ring[i%size])
	}
	return out
}

// total reports how many entries were ever recorded (tests/metrics).
func (l *slowLog) total() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/plan"
)

// queryStatus is the wire shape of one active query on /debug/queries:
// identity, lifecycle position, progress, and — once the iterator tree
// exists — the live per-operator counter tree. Operators is the same
// snapshot EXPLAIN ANALYZE aggregates, taken mid-flight off the atomic
// OpStats the running operators are updating.
type queryStatus struct {
	QueryID   string           `json:"query_id"`
	Kind      string           `json:"kind"` // "query" or "fragment"
	Fragment  *fragmentRef     `json:"fragment,omitempty"`
	State     string           `json:"state"`
	Plan      string           `json:"plan"`
	Batch     int              `json:"batch"`
	CacheHit  bool             `json:"plan_cache_hit"`
	StartedAt time.Time        `json:"started_at"`
	ElapsedMs float64          `json:"elapsed_ms"`
	Rows      int64            `json:"rows"`
	Phases    phaseMillis      `json:"phases"`
	Operators *plan.OpSnapshot `json:"operators,omitempty"`

	// Replans counts how often the query's plan-cache entry has been
	// re-costed after a cardinality mis-estimate (docs/planner.md).
	Replans int64 `json:"replans,omitempty"`

	// Resources is the query's resource bill so far, read mid-flight off
	// the same meter every engine layer is attributing into.
	Resources *core.ResourceSnapshot `json:"resources,omitempty"`

	// Analyze is the mid-flight EXPLAIN ANALYZE rendering; only the
	// one-query drill-down (/debug/queries/{id}) carries it.
	Analyze string `json:"analyze,omitempty"`
}

// status renders a record for the debug endpoints.
func (q *queryRecord) status(drilldown bool) queryStatus {
	st := queryStatus{
		QueryID:   q.id,
		Kind:      q.kind,
		Fragment:  q.frag,
		State:     stateName(q.state.Load()),
		Plan:      q.source,
		Batch:     q.batch,
		CacheHit:  q.cacheHit,
		StartedAt: q.started,
		ElapsedMs: float64(time.Since(q.started)) / 1e6,
		Rows:      q.meter.RowsStreamed.Load(),
		Phases:    q.phases(),
	}
	if q.entry != nil {
		st.Replans = q.entry.replanCount()
	}
	if an := q.analysis.Load(); an != nil {
		snap := an.Snapshot()
		st.Operators = &snap
		res := an.Resources()
		st.Resources = &res
		if drilldown {
			st.Analyze = an.Render(res)
		}
	}
	return st
}

// MountDebug registers the debug endpoints (/debug/queries,
// /debug/queries/{id}, /debug/slowlog) on an additional mux. The main
// handler serves them already; this lets an operations listener — the
// volcano-serve -metrics address — expose them without exposing /query.
func (s *Server) MountDebug(mux *http.ServeMux) {
	mux.HandleFunc("/debug/queries", s.handleDebugQueries)
	mux.HandleFunc("/debug/queries/", s.handleDebugQuery)
	mux.HandleFunc("/debug/slowlog", s.handleDebugSlowlog)
	if s.cfg.Dist != nil {
		mux.HandleFunc("/debug/workers", s.handleDebugWorkers)
	}
}

// handleDebugQueries serves GET /debug/queries: every active query with
// live progress, oldest first.
func (s *Server) handleDebugQueries(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET the active-query list", http.StatusMethodNotAllowed)
		return
	}
	recs := s.reg.snapshot()
	out := struct {
		Active  int           `json:"active"`
		Queries []queryStatus `json:"queries"`
	}{Active: len(recs), Queries: make([]queryStatus, 0, len(recs))}
	for _, q := range recs {
		out.Queries = append(out.Queries, q.status(false))
	}
	writeJSON(w, http.StatusOK, out)
}

// handleDebugQuery serves GET /debug/queries/{id}: one query's drill-down
// including the mid-flight EXPLAIN ANALYZE text.
func (s *Server) handleDebugQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET one query's drill-down", http.StatusMethodNotAllowed)
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/debug/queries/")
	q, ok := s.reg.get(id)
	if !ok {
		http.Error(w, "no active query with that id", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, q.status(true))
}

// handleDebugSlowlog serves GET /debug/slowlog: the retained tail of the
// slow-query log, oldest first.
func (s *Server) handleDebugSlowlog(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET the slow-query log", http.StatusMethodNotAllowed)
		return
	}
	entries := s.slow.entries()
	writeJSON(w, http.StatusOK, struct {
		Total   int            `json:"total"`
		Entries []slowLogEntry `json:"entries"`
	}{Total: s.slow.total(), Entries: entries})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

package server

import (
	"encoding/base64"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"time"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/record"
)

// rowWriter renders result rows as NDJSON objects keyed by the schema's
// field names, straight from the encoded record: no value slice, and
// strings escaped by appendJSONString without leaving the row buffer. The
// keys are JSON-marshaled once per query, and each row is appended into
// one reused buffer, so the per-row cost is the value rendering alone.
type rowWriter struct {
	schema *record.Schema
	keys   [][]byte // `"name":` fragments, one per field
	buf    []byte
}

func newRowWriter(s *record.Schema) *rowWriter {
	w := &rowWriter{schema: s, keys: make([][]byte, s.NumFields())}
	for i := range w.keys {
		name, _ := json.Marshal(s.Field(i).Name)
		w.keys[i] = append(name, ':')
	}
	return w
}

// row renders one encoded record as a single JSON line (newline
// included). The returned slice is valid until the next call.
func (w *rowWriter) row(data []byte) ([]byte, error) {
	b := append(w.buf[:0], '{')
	for i, key := range w.keys {
		v, err := w.schema.Get(data, i)
		if err != nil {
			return nil, err
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, key...)
		b = appendValue(b, v)
	}
	b = append(b, '}', '\n')
	w.buf = b
	return b, nil
}

// appendValue renders a record value as JSON. Floats that JSON cannot
// represent (NaN, ±Inf) become null rather than poisoning the stream;
// bytes are base64, matching encoding/json's []byte convention.
func appendValue(b []byte, v record.Value) []byte {
	switch v.Kind {
	case record.TInt:
		return strconv.AppendInt(b, v.I, 10)
	case record.TFloat:
		if math.IsNaN(v.F) || math.IsInf(v.F, 0) {
			return append(b, "null"...)
		}
		return strconv.AppendFloat(b, v.F, 'g', -1, 64)
	case record.TBool:
		return strconv.AppendBool(b, v.B)
	case record.TString:
		return appendJSONString(b, v.S)
	case record.TBytes:
		b = append(b, '"')
		b = base64.StdEncoding.AppendEncode(b, v.S)
		return append(b, '"')
	default:
		return append(b, "null"...)
	}
}

// appendJSONString appends s as a JSON string literal, byte for byte what
// json.Marshal(string(s)) produces: control characters, quote and
// backslash escaped, <, > and & as \u00XX, invalid UTF-8 as \ufffd, and
// U+2028/U+2029 escaped.
func appendJSONString(dst, s []byte) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0 // s[start:i] is verbatim text not yet appended
	for i := 0; i < len(s); {
		c := s[i]
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRune(s[i:])
			switch {
			case r == utf8.RuneError && size == 1:
				dst = append(append(dst, s[start:i]...), `\ufffd`...)
				start = i + size
			case r == '\u2028' || r == '\u2029':
				dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
				start = i + size
			}
			i += size
			continue
		}
		i++
		if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
			continue
		}
		dst = append(dst, s[start:i-1]...)
		start = i
		switch c {
		case '\\', '"':
			dst = append(dst, '\\', c)
		case '\b':
			dst = append(dst, '\\', 'b')
		case '\f':
			dst = append(dst, '\\', 'f')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
		}
	}
	return append(append(dst, s[start:]...), '"')
}

// phaseMillis is the lifecycle phase breakdown attached to trailers,
// debug views and slow-query log entries: wall milliseconds spent in
// each phase of one query's life.
type phaseMillis struct {
	PlanMs    float64 `json:"plan_ms"`
	QueuedMs  float64 `json:"queued_ms"`
	ExecuteMs float64 `json:"execute_ms"`
	StreamMs  float64 `json:"stream_ms"`
}

// trailer is the status object terminating every NDJSON response body —
// and, with the same schema, the whole body of pre-stream rejections
// (400/429/503), so clients parse exactly one object shape on every
// path. Its presence distinguishes a complete result from a truncated
// one, and it carries the query's identity and timing: QueryID matches
// the X-Volcano-Query-Id response header, ElapsedMs covers plan-to-
// trailer, and Phases breaks that down by lifecycle phase.
type trailer struct {
	Status    string       `json:"status"` // "ok", "error", or "canceled"
	Rows      int64        `json:"rows"`
	QueryID   string       `json:"query_id,omitempty"`
	ElapsedMs float64      `json:"elapsed_ms,omitempty"`
	Phases    *phaseMillis `json:"phases,omitempty"`
	// Resources is the query's attributed resource bill: the same
	// snapshot the slow-query log and /debug/queries serve. Rejections
	// (which never built an iterator tree) omit it.
	Resources *core.ResourceSnapshot `json:"resources,omitempty"`
	// Dist is the distributed-execution block: present only when at
	// least one fragment of this query shipped to a remote worker.
	Dist *distStatus `json:"dist,omitempty"`
	// Analyze carries the EXPLAIN ANALYZE report of this run when the
	// request asked for it with X-Volcano-Analyze: 1.
	Analyze string `json:"analyze,omitempty"`
	Error   string `json:"error,omitempty"`
}

// distStatus summarises a query's remote fragments in the trailer: one
// entry per (cut, producer) with the worker it ran on, dispatch attempts
// (>1 means worker loss survived via retry), records delivered and wire
// bytes received, plus query totals.
type distStatus struct {
	Fragments     []plan.FragmentStat `json:"fragments"`
	Retries       int64               `json:"retries"`
	WireRecvBytes int64               `json:"wire_recv_bytes"`
}

func (t trailer) render() []byte {
	b, _ := json.Marshal(t)
	return append(b, '\n')
}

// writeReject writes a pre-stream rejection: an HTTP error status whose
// body is one trailer-shaped JSON object. Rejections before the stream
// starts and failures after it share one schema, so a client parses the
// last line of any /query response body the same way.
func writeReject(w http.ResponseWriter, status int, id, msg string, elapsed time.Duration, ph *phaseMillis) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(status)
	_, _ = w.Write(trailer{
		Status:    "error",
		QueryID:   id,
		ElapsedMs: float64(elapsed) / 1e6,
		Phases:    ph,
		Error:     msg,
	}.render())
}

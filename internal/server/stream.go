package server

import (
	"encoding/base64"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/record"
)

// rowWriter renders result rows as NDJSON objects straight from the
// encoded record. newRowWriter compiles the schema into one appender per
// field, which writes the field's `"name":` key, marshaled once, and its
// value read at the schema's offset, with no record.Value in between.
// Records are checked where they enter (record.Schema.Check), so a row
// always renders.
type rowWriter struct {
	schema *record.Schema
	fields []func(b, data []byte) []byte
}

func newRowWriter(s *record.Schema) *rowWriter {
	w := &rowWriter{schema: s, fields: make([]func(b, data []byte) []byte, s.NumFields())}
	for i := range w.fields {
		key, _ := json.Marshal(s.Field(i).Name)
		if i > 0 {
			key = append([]byte{','}, key...)
		}
		w.fields[i] = w.compileField(i, append(key, ':'))
	}
	return w
}

// compileField returns the appender of field i. Floats JSON cannot carry
// (NaN, ±Inf) render as null; bytes are base64, as encoding/json does.
func (w *rowWriter) compileField(i int, key []byte) func(b, data []byte) []byte {
	s, off, typ := w.schema, w.schema.Offset(i), w.schema.Field(i).Type
	switch typ {
	case record.TInt:
		return func(b, data []byte) []byte {
			return strconv.AppendInt(append(b, key...), record.IntAt(data, off), 10)
		}
	case record.TFloat:
		return func(b, data []byte) []byte {
			b = append(b, key...)
			if f := record.FloatAt(data, off); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return strconv.AppendFloat(b, f, 'g', -1, 64)
			}
			return append(b, "null"...)
		}
	case record.TBool:
		return func(b, data []byte) []byte {
			return strconv.AppendBool(append(b, key...), data[off] != 0)
		}
	case record.TString:
		return func(b, data []byte) []byte { return appendJSONString(append(b, key...), s.GetBytes(data, i)) }
	}
	return func(b, data []byte) []byte {
		return append(base64.StdEncoding.AppendEncode(append(append(b, key...), '"'), s.GetBytes(data, i)), '"')
	}
}

// row appends one encoded record to dst as a JSON line.
func (w *rowWriter) row(dst, data []byte) []byte {
	b := append(dst, '{')
	for _, f := range w.fields {
		b = f(b, data)
	}
	return append(b, '}', '\n')
}

// The result stream writes in buffers, not rows: one Write and Flush on
// the first row, once the buffer holds streamFlushBytes, after a pull that
// came back short of its target, after a pull when the last write is more
// than streamHold old (a slow producer), and at the end with the trailer.
const (
	streamFlushBytes = 32 << 10
	streamHold       = 10 * time.Millisecond
)

var streamBufs = sync.Pool{New: func() any { return new([]byte) }}

// streamClock is the clock streamHold is measured on; a test holds it
// still to read the cadence by rows and bytes alone.
var streamClock = time.Now

// rowStream is one query's result stream: its rows rendered into a pooled
// buffer, and the rows and bytes it rendered. It counts them in plain
// fields and publishes them to the query's meter at each write and once
// after the drain (publish), so the per-row path touches no atomic.
type rowStream struct {
	w     http.ResponseWriter
	rc    *http.ResponseController
	stall time.Duration // the write-stall deadline set before each write
	meter *core.ResourceMeter
	rw    *rowWriter
	pbuf  *[]byte
	buf   []byte
	rows  int64
	bytes int64
	wrote time.Time // when the last write went out
}

func newRowStream(w http.ResponseWriter, m *core.ResourceMeter, s *record.Schema, stall time.Duration) *rowStream {
	pbuf := streamBufs.Get().(*[]byte)
	return &rowStream{w: w, rc: http.NewResponseController(w), stall: stall, meter: m, rw: newRowWriter(s), pbuf: pbuf, buf: (*pbuf)[:0]}
}

// row renders one record into the buffer, writing the buffer on the first
// row and once it holds streamFlushBytes. It allocates nothing and touches
// no atomic (TestRegistryHotPathZeroAlloc).
func (st *rowStream) row(r core.Rec) error {
	n := len(st.buf)
	b := st.rw.row(st.buf, r.Data)
	st.buf, st.rows, st.bytes = b, st.rows+1, st.bytes+int64(len(b)-n)
	if st.rows == 1 || len(b) >= streamFlushBytes {
		return st.write()
	}
	return nil
}

// publish stores the stream's row and byte counts in the query's meter,
// where /debug/queries, the slow-query log and the trailer read them.
func (st *rowStream) publish() { st.meter.SetStreamed(st.rows, st.bytes) }

// pulled ends one pull of the drain, writing the buffer if the pull came
// back short of its target or the last write is more than streamHold old.
func (st *rowStream) pulled(short bool) error {
	if len(st.buf) > 0 && (short || streamClock().Sub(st.wrote) > streamHold) {
		return st.write()
	}
	return nil
}

// write publishes the counts and hands the buffer to the client after
// pushing the write-stall deadline forward: a client that stops reading
// stalls the write until the deadline severs the connection, which
// cancels the query's context. Publishing first lets /debug/queries show
// the rows of a write the client is not reading.
func (st *rowStream) write() error {
	st.publish()
	if st.stall > 0 {
		_ = st.rc.SetWriteDeadline(time.Now().Add(st.stall))
	}
	_, err := st.w.Write(st.buf)
	if f, ok := st.w.(http.Flusher); ok {
		f.Flush()
	}
	st.buf, st.wrote = st.buf[:0], streamClock()
	return err
}

// end writes the rows still buffered and the trailer, and pools the buffer
// unless one huge row grew it far past streamFlushBytes.
func (st *rowStream) end(t trailer) {
	st.buf = append(st.buf, t.render()...)
	_ = st.write()
	if cap(st.buf) <= 4*streamFlushBytes {
		*st.pbuf = st.buf
		streamBufs.Put(st.pbuf)
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

package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// WriteChrome exports the merged, time-ordered event log in the Chrome
// trace-event JSON format (the "JSON Array Format" with an object
// wrapper), loadable in chrome://tracing and Perfetto. Tracks become
// threads (one per emitting goroutine) of pid 0, and flow events draw
// arrows from packet pushes to pops across tracks.
//
// The encoder is hand-rolled so key order and number formatting are
// deterministic: a trace of the same logical run (under a fixed test
// clock) is byte-identical, which the golden test pins.
func (t *Tracer) WriteChrome(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"displayTimeUnit":"ns","traceEvents":[]}`+"\n")
		return err
	}
	snaps := t.Snapshot()

	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	emit := func(s string) {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		bw.WriteString("\n")
		bw.WriteString(s)
	}

	// Metadata: thread names per track.
	for _, s := range snaps {
		emit(fmt.Sprintf(`{"ph":"M","pid":0,"tid":%d,"name":"thread_name","args":{"name":%s}}`,
			s.TID, quote(s.Name)))
	}

	// Merge all tracks into one time-ordered log. Ties break by (tid,
	// emission order) so the output is deterministic.
	type ref struct {
		track int // index into snaps
		ev    int // index into snaps[track].Events
	}
	var refs []ref
	for ti := range snaps {
		for ei := range snaps[ti].Events {
			refs = append(refs, ref{ti, ei})
		}
	}
	sort.SliceStable(refs, func(i, j int) bool {
		a, b := refs[i], refs[j]
		ea, eb := snaps[a.track].Events[a.ev], snaps[b.track].Events[b.ev]
		if ea.TS != eb.TS {
			return ea.TS < eb.TS
		}
		if snaps[a.track].TID != snaps[b.track].TID {
			return snaps[a.track].TID < snaps[b.track].TID
		}
		return a.ev < b.ev
	})

	for _, r := range refs {
		s := &snaps[r.track]
		emit(chromeEvent(s.TID, s.Events[r.ev]))
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// chromeEvent renders one event as a Chrome trace-event object.
func chromeEvent(tid int, e Event) string {
	b := make([]byte, 0, 160)
	b = append(b, `{"ph":"`...)
	b = append(b, byte(e.Ph))
	b = append(b, `","pid":0,"tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	b = append(b, `,"ts":`...)
	b = appendMicros(b, e.TS)
	if e.Ph == PhaseSpan {
		b = append(b, `,"dur":`...)
		b = appendMicros(b, e.Dur)
	}
	b = append(b, `,"cat":`...)
	b = append(b, quote(e.Cat)...)
	b = append(b, `,"name":`...)
	b = append(b, quote(e.Name)...)
	switch e.Ph {
	case PhaseFlowStart:
		b = append(b, `,"id":`...)
		b = strconv.AppendInt(b, e.ID, 10)
	case PhaseFlowEnd:
		b = append(b, `,"id":`...)
		b = strconv.AppendInt(b, e.ID, 10)
		b = append(b, `,"bp":"e"`...)
	case PhaseInstant:
		b = append(b, `,"s":"t"`...)
	}
	if e.ArgKey != "" {
		b = append(b, `,"args":{`...)
		b = append(b, quote(e.ArgKey)...)
		b = append(b, ':')
		b = strconv.AppendInt(b, e.ArgVal, 10)
		b = append(b, '}')
	}
	b = append(b, '}')
	return string(b)
}

// appendMicros renders nanoseconds as microseconds with three decimals
// (Chrome's ts/dur unit is microseconds; the fraction keeps nanosecond
// resolution).
func appendMicros(b []byte, ns int64) []byte {
	neg := ns < 0
	if neg {
		ns = -ns
		b = append(b, '-')
	}
	b = strconv.AppendInt(b, ns/1000, 10)
	b = append(b, '.')
	frac := ns % 1000
	b = append(b, byte('0'+frac/100), byte('0'+(frac/10)%10), byte('0'+frac%10))
	return b
}

// quote JSON-escapes a string (names and categories are static ASCII in
// practice, but the exporter must never emit invalid JSON).
func quote(s string) string { return strconv.Quote(s) }

// Package trace is the structured event tracer for the exchange protocol
// and everything around it: a low-overhead, concurrency-safe recorder of
// spans and instants that can be merged into one time-ordered log and
// exported as Chrome trace-event JSON (chrome://tracing, Perfetto).
//
// Design:
//
//   - Recording is sharded: every emitting goroutine (an exchange
//     producer, a consumer endpoint, a buffer daemon) owns a Track, a
//     fixed-capacity single-writer ring that it appends to without taking
//     any lock. Publication is a single atomic store of the track length,
//     so concurrent tracks never contend and the merged view (taken after
//     the traced region quiesces) is race-free.
//   - A nil *Tracer (and the nil *Track handles it hands out) is the
//     disabled tracer: every method is a nil-check and return, so
//     instrumentation can stay wired in production code paths at the cost
//     of one predictable branch and zero allocations.
//   - Events never allocate on the hot path: names and categories are
//     static strings, numeric arguments are stored in place, and span
//     timing reuses time values the caller already measured.
//
// The event vocabulary mirrors the Chrome trace-event format: complete
// spans (ph "X"), instants (ph "i"), and flow arrows (ph "s"/"f") that
// connect a packet's push on a producer track to its pop on a consumer
// track.
package trace

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Phase is the Chrome trace-event phase of an event.
type Phase byte

// Phases used by this tracer (a subset of the Chrome vocabulary).
const (
	PhaseSpan      Phase = 'X' // complete event: TS + Dur
	PhaseInstant   Phase = 'i' // instant event
	PhaseFlowStart Phase = 's' // flow arrow tail (producer side)
	PhaseFlowEnd   Phase = 'f' // flow arrow head (consumer side)
)

// Event is one recorded trace event. All fields are plain values so a
// Track stores events in place with no per-event allocation.
type Event struct {
	TS   int64 // nanoseconds since the tracer's epoch
	Dur  int64 // span duration in nanoseconds (PhaseSpan only)
	Ph   Phase
	Cat  string // category, e.g. "exchange", "packet", "buffer"
	Name string
	ID   int64 // flow id binding a PhaseFlowStart to a PhaseFlowEnd
	// One optional numeric argument, stored inline ("" = none).
	ArgKey string
	ArgVal int64
}

// DefaultTrackCap is the per-track ring capacity used by New.
const DefaultTrackCap = 1 << 16

// Tracer owns the clock, the track registry and the flow-id sequence. A
// nil Tracer is valid and means "tracing disabled".
type Tracer struct {
	epoch time.Time
	// now returns nanoseconds since epoch; replaced in tests for
	// deterministic output.
	now func() int64

	trackCap int
	flowSeq  atomic.Int64

	mu     sync.Mutex
	tracks []*Track
	procs  map[int]string
}

// New creates an enabled tracer whose tracks hold DefaultTrackCap events.
func New() *Tracer { return NewWithCapacity(DefaultTrackCap) }

// NewWithCapacity creates an enabled tracer with the given per-track ring
// capacity (minimum 16).
func NewWithCapacity(trackCap int) *Tracer {
	if trackCap < 16 {
		trackCap = 16
	}
	epoch := time.Now()
	return &Tracer{
		epoch:    epoch,
		now:      func() int64 { return int64(time.Since(epoch)) },
		trackCap: trackCap,
		procs:    map[int]string{},
	}
}

// Enabled reports whether the tracer records events.
func (t *Tracer) Enabled() bool { return t != nil }

// NextFlowID returns a fresh nonzero id binding a flow arrow's two ends.
// The nil tracer returns 0, which all flow emitters treat as "no arrow".
func (t *Tracer) NextFlowID() int64 {
	if t == nil {
		return 0
	}
	return t.flowSeq.Add(1)
}

// NameProcess labels a pid ("process" in Chrome terms — this tracer uses
// pids for machines/sites, pid 0 being the local process).
func (t *Tracer) NameProcess(pid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.procs[pid] = name
	t.mu.Unlock()
}

// NewTrack registers a track on pid 0. The returned handle is owned by
// exactly one goroutine at a time (single writer); the nil tracer returns
// a nil handle whose methods all no-op.
func (t *Tracer) NewTrack(name string) *Track { return t.NewTrackOn(0, name) }

// NewTrackOn registers a track on an explicit pid (a site/machine).
func (t *Tracer) NewTrackOn(pid int, name string) *Track {
	if t == nil {
		return nil
	}
	k := &Track{t: t, pid: pid, name: name, buf: make([]Event, t.trackCap)}
	t.mu.Lock()
	k.tid = len(t.tracks) + 1
	t.tracks = append(t.tracks, k)
	t.mu.Unlock()
	return k
}

// Track is one single-writer event ring. The writing goroutine appends
// through the emit methods; readers (Snapshot, WriteChrome) observe a
// prefix published by the atomic length counter, so reading while the
// writer is still active is safe, if possibly one event behind.
type Track struct {
	t    *Tracer
	pid  int
	tid  int
	name string

	buf     []Event
	n       atomic.Int64 // published length, ≤ len(buf)
	dropped atomic.Int64 // events discarded because the ring was full
}

// Name returns the track's label ("" for the nil track).
func (k *Track) Name() string {
	if k == nil {
		return ""
	}
	return k.name
}

// emit appends one event. Single writer: a plain read of n is the
// writer's own previous store; the atomic store publishes the slot to
// later readers.
func (k *Track) emit(ev Event) {
	n := k.n.Load()
	if int(n) == len(k.buf) {
		k.dropped.Add(1)
		return
	}
	k.buf[n] = ev
	k.n.Store(n + 1)
}

// Instant records an instant event at the current time.
func (k *Track) Instant(cat, name string) {
	if k == nil {
		return
	}
	k.emit(Event{TS: k.t.now(), Ph: PhaseInstant, Cat: cat, Name: name})
}

// Instant1 records an instant event with one numeric argument.
func (k *Track) Instant1(cat, name, argKey string, argVal int64) {
	if k == nil {
		return
	}
	k.emit(Event{TS: k.t.now(), Ph: PhaseInstant, Cat: cat, Name: name, ArgKey: argKey, ArgVal: argVal})
}

// SpanAt records a complete span from times the caller already measured
// (so instrumentation that times an operation for its own statistics pays
// no extra clock reads).
func (k *Track) SpanAt(cat, name string, start time.Time, dur time.Duration) {
	if k == nil {
		return
	}
	k.emit(Event{TS: int64(start.Sub(k.t.epoch)), Dur: int64(dur), Ph: PhaseSpan, Cat: cat, Name: name})
}

// SpanAt1 is SpanAt with one numeric argument.
func (k *Track) SpanAt1(cat, name string, start time.Time, dur time.Duration, argKey string, argVal int64) {
	if k == nil {
		return
	}
	k.emit(Event{TS: int64(start.Sub(k.t.epoch)), Dur: int64(dur), Ph: PhaseSpan, Cat: cat, Name: name, ArgKey: argKey, ArgVal: argVal})
}

// SpanSince records a complete span from start to now.
func (k *Track) SpanSince(cat, name string, start time.Time) {
	if k == nil {
		return
	}
	k.SpanAt(cat, name, start, time.Since(start))
}

// FlowOut records the tail of a flow arrow (with a zero-length span so
// trace viewers have a slice to anchor the arrow to). id must come from
// NextFlowID; id 0 records nothing.
func (k *Track) FlowOut(cat, name string, id int64, argKey string, argVal int64) {
	if k == nil || id == 0 {
		return
	}
	ts := k.t.now()
	k.emit(Event{TS: ts, Ph: PhaseInstant, Cat: cat, Name: name, ArgKey: argKey, ArgVal: argVal})
	k.emit(Event{TS: ts, Ph: PhaseFlowStart, Cat: cat, Name: name, ID: id})
}

// FlowIn records the head of a flow arrow.
func (k *Track) FlowIn(cat, name string, id int64, argKey string, argVal int64) {
	if k == nil || id == 0 {
		return
	}
	ts := k.t.now()
	k.emit(Event{TS: ts, Ph: PhaseInstant, Cat: cat, Name: name, ArgKey: argKey, ArgVal: argVal})
	k.emit(Event{TS: ts, Ph: PhaseFlowEnd, Cat: cat, Name: name, ID: id})
}

// Len returns the number of events currently published on the track.
func (k *Track) Len() int {
	if k == nil {
		return 0
	}
	return int(k.n.Load())
}

// TrackSnapshot is one track's published events plus identity.
type TrackSnapshot struct {
	PID     int
	TID     int
	Name    string
	Events  []Event // in emission order; instants have monotonic TS, spans carry their start time
	Dropped int64
}

// Snapshot returns every track's published events, tracks ordered by
// (pid, tid). Intended for after the traced region has quiesced; while
// writers are active it returns a consistent prefix per track.
func (t *Tracer) Snapshot() []TrackSnapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	tracks := append([]*Track(nil), t.tracks...)
	t.mu.Unlock()
	out := make([]TrackSnapshot, 0, len(tracks))
	for _, k := range tracks {
		n := int(k.n.Load())
		out = append(out, TrackSnapshot{
			PID:     k.pid,
			TID:     k.tid,
			Name:    k.name,
			Events:  append([]Event(nil), k.buf[:n]...),
			Dropped: k.dropped.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].PID != out[j].PID {
			return out[i].PID < out[j].PID
		}
		return out[i].TID < out[j].TID
	})
	return out
}

// TotalDropped sums the dropped counters across tracks.
func (t *Tracer) TotalDropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var n int64
	for _, k := range t.tracks {
		n += k.dropped.Load()
	}
	return n
}

package trace

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestConcurrentEmitters drives many goroutines, each emitting on its own
// track, and checks the merged snapshot under -race: every event arrives,
// and instants on one track have monotonically non-decreasing timestamps.
func TestConcurrentEmitters(t *testing.T) {
	const (
		goroutines = 8
		perTrack   = 500
	)
	tr := New()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tk := tr.NewTrack(fmt.Sprintf("worker%d", g))
			for i := 0; i < perTrack; i++ {
				switch i % 3 {
				case 0:
					tk.Instant("test", "tick")
				case 1:
					tk.Instant1("test", "tick1", "i", int64(i))
				default:
					tk.SpanSince("test", "work", time.Now())
				}
			}
		}(g)
	}
	wg.Wait()

	snaps := tr.Snapshot()
	if len(snaps) != goroutines {
		t.Fatalf("got %d tracks, want %d", len(snaps), goroutines)
	}
	total := 0
	for _, s := range snaps {
		if s.Dropped != 0 {
			t.Errorf("track %s dropped %d events", s.Name, s.Dropped)
		}
		total += len(s.Events)
		last := int64(-1)
		for _, e := range s.Events {
			if e.Ph != PhaseInstant {
				continue
			}
			if e.TS < last {
				t.Fatalf("track %s: instant TS went backwards (%d after %d)", s.Name, e.TS, last)
			}
			last = e.TS
		}
	}
	if total != goroutines*perTrack {
		t.Fatalf("got %d events, want %d", total, goroutines*perTrack)
	}
}

// TestSnapshotOrdering checks tracks come back sorted by tid.
func TestSnapshotOrdering(t *testing.T) {
	tr := New()
	tr.NewTrack("c")
	tr.NewTrack("b")
	tr.NewTrack("a")
	snaps := tr.Snapshot()
	if len(snaps) != 3 {
		t.Fatalf("got %d tracks", len(snaps))
	}
	for i := 1; i < len(snaps); i++ {
		a, b := snaps[i-1], snaps[i]
		if a.TID > b.TID {
			t.Fatalf("tracks out of order: %+v before %+v", a, b)
		}
	}
}

// TestRingDrop fills a small ring past capacity and checks the overflow is
// counted, not silently lost.
func TestRingDrop(t *testing.T) {
	tr := NewWithCapacity(16)
	tk := tr.NewTrack("tiny")
	for i := 0; i < 20; i++ {
		tk.Instant("test", "e")
	}
	if got := tk.Len(); got != 16 {
		t.Errorf("Len = %d, want 16", got)
	}
	if got := tk.dropped.Load(); got != 4 {
		t.Errorf("Dropped = %d, want 4", got)
	}
	if got := tr.TotalDropped(); got != 4 {
		t.Errorf("TotalDropped = %d, want 4", got)
	}
	if got := tr.Snapshot()[0].Dropped; got != 4 {
		t.Errorf("snapshot Dropped = %d, want 4", got)
	}
}

// TestFlowIDs checks ids are unique and nonzero, and that id 0 records no
// arrow.
func TestFlowIDs(t *testing.T) {
	tr := New()
	seen := map[int64]bool{}
	for i := 0; i < 100; i++ {
		id := tr.NextFlowID()
		if id == 0 || seen[id] {
			t.Fatalf("flow id %d reused or zero", id)
		}
		seen[id] = true
	}
	tk := tr.NewTrack("flows")
	tk.FlowOut("packet", "push", 0, "n", 1) // id 0: no arrow
	if tk.Len() != 0 {
		t.Errorf("FlowOut with id 0 recorded %d events, want 0", tk.Len())
	}
	tk.FlowOut("packet", "push", 7, "n", 1)
	tk.FlowIn("packet", "pop", 7, "n", 1)
	evs := tr.Snapshot()[0].Events
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4 (instant+s, instant+f)", len(evs))
	}
	if evs[1].Ph != PhaseFlowStart || evs[1].ID != 7 {
		t.Errorf("flow tail = %+v", evs[1])
	}
	if evs[3].Ph != PhaseFlowEnd || evs[3].ID != 7 {
		t.Errorf("flow head = %+v", evs[3])
	}
}

// TestNilTracerSafe exercises every method on the disabled (nil) tracer
// and its nil track handles.
func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	if got := tr.NextFlowID(); got != 0 {
		t.Errorf("nil NextFlowID = %d", got)
	}
	if snaps := tr.Snapshot(); snaps != nil {
		t.Errorf("nil Snapshot = %v", snaps)
	}
	if tr.TotalDropped() != 0 {
		t.Error("nil TotalDropped != 0")
	}

	tk := tr.NewTrack("ghost")
	if tk != nil {
		t.Fatal("nil tracer handed out a live track")
	}
	if tk.Name() != "" {
		t.Error("nil track has a name")
	}
	tk.Instant("c", "n")
	tk.Instant1("c", "n", "k", 1)
	tk.SpanAt("c", "n", time.Now(), time.Millisecond)
	tk.SpanAt1("c", "n", time.Now(), time.Millisecond, "k", 1)
	tk.SpanSince("c", "n", time.Now())
	tk.FlowOut("c", "n", 1, "k", 1)
	tk.FlowIn("c", "n", 1, "k", 1)
	if tk.Len() != 0 {
		t.Error("nil track recorded something")
	}
}

// TestSnapshotWhileWriting reads a consistent prefix while a writer is
// still appending (the -race build is the real assertion here).
func TestSnapshotWhileWriting(t *testing.T) {
	tr := New()
	done := make(chan struct{})
	go func() {
		defer close(done)
		tk := tr.NewTrack("writer")
		for i := 0; i < 2000; i++ {
			tk.Instant1("test", "e", "i", int64(i))
		}
	}()
	for i := 0; i < 50; i++ {
		for _, s := range tr.Snapshot() {
			for j, e := range s.Events {
				if e.ArgVal != int64(j) {
					t.Fatalf("event %d has arg %d: torn read", j, e.ArgVal)
				}
			}
		}
	}
	<-done
}

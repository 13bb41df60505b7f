package metrics

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNilRegistryIsDisabledAndSafe(t *testing.T) {
	var r *Registry
	if r.Enabled() {
		t.Fatal("nil registry reports enabled")
	}
	c := r.Counter("x_total", "x")
	g := r.Gauge("g", "g")
	h := r.Histogram("h_seconds", "h", nil)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	// All nil-handle operations are no-ops, not panics.
	c.Add(1)
	c.Inc()
	g.Set(5)
	g.Add(-2)
	g.Inc()
	g.Dec()
	h.Observe(time.Millisecond)
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	r.SetCounterFunc("f_total", "f", func() float64 { return 1 })
	r.SetGaugeFunc("fg", "fg", func() float64 { return 1 })
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil registry WriteText: err=%v out=%q", err, sb.String())
	}
}

func TestGetOrCreateReturnsSameInstrument(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("volcano_x_total", "x", Label{"op", "sort"})
	b := r.Counter("volcano_x_total", "x", Label{"op", "sort"})
	if a != b {
		t.Fatal("same name+labels must return the same counter")
	}
	other := r.Counter("volcano_x_total", "x", Label{"op", "scan"})
	if other == a {
		t.Fatal("different labels must return a different child")
	}
	a.Add(2)
	b.Inc()
	if a.Value() != 3 {
		t.Fatalf("shared counter = %d, want 3", a.Value())
	}

	h1 := r.Histogram("volcano_h_seconds", "h", nil, Label{"op", "join"})
	h2 := r.Histogram("volcano_h_seconds", "h", nil, Label{"op", "join"})
	if h1 != h2 {
		t.Fatal("same name+labels must return the same histogram")
	}
}

func TestLabelOrderIsCanonical(t *testing.T) {
	r := NewRegistry()
	a := r.Gauge("g", "g", Label{"b", "2"}, Label{"a", "1"})
	b := r.Gauge("g", "g", Label{"a", "1"}, Label{"b", "2"})
	if a != b {
		t.Fatal("label order must not matter")
	}
	a.Set(7)
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `g{a="1",b="2"} 7`) {
		t.Fatalf("labels not rendered sorted:\n%s", sb.String())
	}
}

func TestTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("x", "x")
}

func TestFuncCollectorsReplace(t *testing.T) {
	r := NewRegistry()
	r.SetGaugeFunc("pool_pinned", "pinned frames", func() float64 { return 1 })
	r.SetGaugeFunc("pool_pinned", "pinned frames", func() float64 { return 42 })
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "pool_pinned 42") {
		t.Fatalf("replacement callback not used:\n%s", out)
	}
	if strings.Contains(out, "pool_pinned 1\n") {
		t.Fatalf("stale callback still rendered:\n%s", out)
	}
}

func TestLabelValueEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "c", Label{"q", "a\"b\\c\nd"}).Inc()
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	want := `c_total{q="a\"b\\c\nd"} 1`
	if !strings.Contains(sb.String(), want) {
		t.Fatalf("escaping wrong, want %s in:\n%s", want, sb.String())
	}
	if _, err := ParseText(strings.NewReader(sb.String())); err != nil {
		t.Fatalf("escaped output must re-parse: %v", err)
	}
}

// TestRegistryConcurrentAccess hammers registration, updates and scrapes
// from many goroutines; run under -race it proves the registry locking
// and the atomic instruments are sound.
func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ops := []string{"scan", "sort", "join", "agg"}
			for n := 0; n < 500; n++ {
				op := ops[n%len(ops)]
				r.Counter("volcano_next_total", "next calls", Label{"op", op}).Inc()
				r.Gauge("volcano_depth", "queue depth", Label{"op", op}).Add(1)
				r.Histogram("volcano_next_seconds", "latency", nil, Label{"op", op}).
					Observe(time.Duration(n) * time.Microsecond)
			}
		}(i)
	}
	// Concurrent scraper.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; n < 50; n++ {
			var sb strings.Builder
			if err := r.WriteText(&sb); err != nil {
				t.Errorf("WriteText: %v", err)
				return
			}
			if _, err := ParseText(strings.NewReader(sb.String())); err != nil {
				t.Errorf("mid-run scrape unparseable: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	total := int64(0)
	for _, op := range []string{"scan", "sort", "join", "agg"} {
		total += r.Counter("volcano_next_total", "", Label{"op", op}).Value()
	}
	if total != 8*500 {
		t.Fatalf("lost updates: total=%d want %d", total, 8*500)
	}
}

// TestScrapeRacesRegistration pins the WriteText locking fix: scrapes
// run concurrently with family/child registration (fresh label sets, so
// the child maps keep growing) and with callback replacement
// (SetGaugeFunc swapping fn). The registering goroutines run until the
// scrape loop finishes, so every scrape overlaps live registration —
// before the fix WriteText iterated family.children and read f.fn
// outside the registry lock, a fatal concurrent map iteration/write
// under this load. Run with -race.
func TestScrapeRacesRegistration(t *testing.T) {
	r := NewRegistry()
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for n := 0; !stop.Load(); n++ {
				// Cap the child count so late scrapes stay cheap; map
				// writes still happen throughout the warm-up, and the fn
				// swap below races the scraper for the whole run.
				lbl := Label{"worker", fmt.Sprintf("w%d-%d", id, n%256)}
				r.Counter("volcano_race_total", "per-worker children", lbl).Inc()
				r.Histogram("volcano_race_seconds", "per-worker children", nil, lbl).
					Observe(time.Duration(n) * time.Microsecond)
				v := float64(n)
				r.SetGaugeFunc("volcano_race_fn", "replaced every call", func() float64 { return v })
			}
		}(i)
	}
	for n := 0; n < 30; n++ {
		var sb strings.Builder
		if err := r.WriteText(&sb); err != nil {
			t.Errorf("WriteText: %v", err)
			break
		}
		if _, err := ParseText(strings.NewReader(sb.String())); err != nil {
			t.Errorf("mid-registration scrape unparseable: %v", err)
			break
		}
	}
	stop.Store(true)
	wg.Wait()
}

package metrics

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// buildGoldenRegistry populates one instrument of every kind with
// deterministic values so the exposition output is byte-stable.
func buildGoldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("volcano_buffer_hits_total", "Buffer pool fix requests satisfied from memory.").Add(1047)
	r.Counter("volcano_buffer_misses_total", "Buffer pool fix requests that read from the device.").Add(17)
	r.Counter("volcano_exchange_packets_total", "Packets pushed through exchange ports.").Add(32)
	g := r.Gauge("volcano_buffer_pinned_frames", "Frames currently pinned.")
	g.Set(12)
	r.Gauge("volcano_exchange_producers_live", "Producer goroutines currently running.").Set(4)
	r.SetCounterFunc("volcano_device_page_reads_total", "Pages read from devices.", func() float64 { return 128 })
	r.SetGaugeFunc("volcano_buffer_frames", "Total frames in the buffer pool.", func() float64 { return 1024 })

	h := r.Histogram("volcano_server_query_phase_seconds", "Wall time queries spent in each lifecycle phase.",
		Label{"phase", "stream"})
	for i := 0; i < 10; i++ {
		h.Observe(500 * time.Nanosecond)
	}
	h.Observe(50 * time.Microsecond)
	h.Observe(10 * time.Second) // overflow
	h2 := r.Histogram("volcano_server_query_phase_seconds", "Wall time queries spent in each lifecycle phase.",
		Label{"phase", "plan"})
	h2.Observe(2 * time.Microsecond)
	return r
}

// TestExpositionGolden pins the Prometheus text output byte-for-byte.
// Regenerate with: go test ./internal/metrics -run Golden -update
func TestExpositionGolden(t *testing.T) {
	var sb strings.Builder
	if err := buildGoldenRegistry().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	golden := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Fatalf("exposition output drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	// The golden output must itself be valid exposition format.
	fams, err := ParseText(strings.NewReader(got))
	if err != nil {
		t.Fatalf("golden output does not parse: %v", err)
	}
	if fams["volcano_server_query_phase_seconds"] == 0 {
		t.Fatal("histogram family missing from parse result")
	}
}

func TestExpositionDeterministic(t *testing.T) {
	var a, b strings.Builder
	if err := buildGoldenRegistry().WriteText(&a); err != nil {
		t.Fatal(err)
	}
	if err := buildGoldenRegistry().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("exposition output is not deterministic across identical registries")
	}
}

func TestHistogramExpositionShape(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "h")
	h.Observe(500 * time.Microsecond)
	h.Observe(5 * time.Second)
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE h_seconds histogram",
		`h_seconds_bucket{le="0.001"} 1`,
		`h_seconds_bucket{le="4"} 1`,
		`h_seconds_bucket{le="+Inf"} 2`,
		"h_seconds_sum 5.0005",
		"h_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

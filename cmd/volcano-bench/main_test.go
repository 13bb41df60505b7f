package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// TestRunUnknownExperiment pins the error path.
func TestRunUnknownExperiment(t *testing.T) {
	if err := run(options{exp: "nosuch", records: 100}); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

// TestRunAllObservabilityFlagsTogether is the satellite acceptance
// check for this CLI: -analyze, -trace and -metrics compose in one
// invocation — the breakdown prints with quantiles, the trace and JSON
// files are written (the report carrying the latency summary), and the
// endpoint serves a parseable exposition covering every family.
func TestRunAllObservabilityFlagsTogether(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "bench.json")
	tracePath := filepath.Join(dir, "trace.json")

	var fams map[string]int
	o := options{
		exp:       "fig2a",
		records:   600,
		joinRows:  100,
		jsonPath:  jsonPath,
		tracePath: tracePath,
		analyze:   true,
		// Port 0: the kernel picks a free port, the hook learns it.
		metricsAddr: "127.0.0.1:0",
		metricsHook: func(addr string) {
			resp, err := http.Get("http://" + addr + "/metrics")
			if err != nil {
				t.Errorf("GET /metrics: %v", err)
				return
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			f, perr := metrics.ParseText(strings.NewReader(string(body)))
			if perr != nil {
				t.Errorf("scrape is not valid exposition: %v\n%s", perr, body)
				return
			}
			fams = f
		},
	}

	// The experiment tables go to stdout; swallow them.
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	rerr := run(o)
	os.Stdout = old
	devnull.Close()
	if rerr != nil {
		t.Fatal(rerr)
	}

	// The scrape covers the buffer (registered by the analyzed pass),
	// device and exchange families.
	for _, fam := range []string{
		"volcano_buffer_fixes_total",
		"volcano_device_page_reads_total",
		"volcano_exchange_packets_total",
	} {
		if fams[fam] == 0 {
			t.Errorf("scrape missing family %s (got %v)", fam, fams)
		}
	}

	// The JSON report carries the analyzed pass's latency summary.
	b, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		AnalyzedPass *struct {
			Records   int   `json:"records"`
			NextCalls int64 `json:"next_calls"`
			MeanNs    int64 `json:"mean_ns"`
			P50Ns     int64 `json:"p50_ns"`
			P99Ns     int64 `json:"p99_ns"`
		} `json:"analyzed_pass"`
	}
	if err := json.Unmarshal(b, &report); err != nil {
		t.Fatal(err)
	}
	ap := report.AnalyzedPass
	if ap == nil {
		t.Fatal("report missing analyzed_pass")
	}
	if ap.Records != 600 || ap.NextCalls < int64(ap.Records) || ap.P50Ns <= 0 || ap.P99Ns < ap.P50Ns {
		t.Fatalf("implausible latency summary: %+v", ap)
	}

	// And the trace file is valid Chrome trace JSON.
	tb, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(tb, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace recorded no events")
	}
}

// TestObservabilityHelpMentionsAllFlags pins the -help table.
func TestObservabilityHelpMentionsAllFlags(t *testing.T) {
	for _, want := range []string{"-analyze", "-trace", "-metrics", "compose"} {
		if !strings.Contains(observabilityHelp, want) {
			t.Errorf("observability help missing %q", want)
		}
	}
}

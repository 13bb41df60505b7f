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

// captureStderr runs f with os.Stderr redirected to a pipe and returns
// everything written to it. The analyze report goes to stderr so the
// result rows on stdout stay machine-readable.
func captureStderr(t *testing.T, f func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stderr
	os.Stderr = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	ferr := f()
	os.Stderr = old
	w.Close()
	out := <-done
	r.Close()
	if ferr != nil {
		t.Fatalf("run: %v\nstderr:\n%s", ferr, out)
	}
	return out
}

func writeCSV(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const empCSV = "0,0,1000.5,alice\n1,1,2000.0,bob\n2,0,3000.25,carol\n3,1,4000.0,dave\n"

func TestRunInMemoryQuery(t *testing.T) {
	csv := writeCSV(t, "emp.csv", empCSV)
	err := run(options{
		query:   "scan emp | filter dept = 0 | sort salary desc",
		frames:  256,
		schemas: []string{"emp=id:int,dept:int,salary:float,name:string"},
		loads:   []string{"emp=" + csv},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunExplainOnly(t *testing.T) {
	if err := run(options{query: "scan emp | sort id", frames: 256, explain: true}); err != nil {
		t.Fatal(err)
	}
}

func TestRunAnalyze(t *testing.T) {
	csv := writeCSV(t, "emp.csv", empCSV)
	out := captureStderr(t, func() error {
		return run(options{
			query:   "scan emp | agg group dept compute count",
			frames:  256,
			analyze: true,
			schemas: []string{"emp=id:int,dept:int,salary:float,name:string"},
			loads:   []string{"emp=" + csv},
		})
	})
	// Per-operator lines carry row counts, NextBatch calls, and wall times.
	for _, want := range []string{"scan emp", "rows=4", "calls=", "next=", "buffer: fixes=", "pins balanced"} {
		if !strings.Contains(out, want) {
			t.Fatalf("analyze output missing %q:\n%s", want, out)
		}
	}
}

func TestRunAnalyzeParallelExchangeCounters(t *testing.T) {
	csv := writeCSV(t, "emp.csv", empCSV)
	out := captureStderr(t, func() error {
		return run(options{
			query:      "pscan emp 2 | exchange producers=2 | agg group dept compute count | sort dept",
			frames:     512,
			analyze:    true,
			schemas:    []string{"emp=id:int,dept:int,salary:float,name:string"},
			loads:      []string{"emp=" + csv},
			partitions: []string{"emp:2"},
		})
	})
	// The exchange node reports port activity: packets, records crossed,
	// producer forks, flow-control stall and consumer wait.
	for _, want := range []string{"exchange", "packets=", "records=4", "forks=2", "stall=", "wait=", "rows=4"} {
		if !strings.Contains(out, want) {
			t.Fatalf("analyze output missing %q:\n%s", want, out)
		}
	}
}

func TestRunPartitionedParallelQuery(t *testing.T) {
	csv := writeCSV(t, "emp.csv", empCSV)
	err := run(options{
		query:      "pscan emp 2 | exchange producers=2 | agg group dept compute count | sort dept",
		frames:     512,
		schemas:    []string{"emp=id:int,dept:int,salary:float,name:string"},
		loads:      []string{"emp=" + csv},
		partitions: []string{"emp:2"},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunTracedParallelQuery(t *testing.T) {
	csv := writeCSV(t, "emp.csv", empCSV)
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	err := run(options{
		query:      "pscan emp 2 | exchange producers=2 | agg group dept compute count | sort dept",
		frames:     512,
		tracePath:  tracePath,
		schemas:    []string{"emp=id:int,dept:int,salary:float,name:string"},
		loads:      []string{"emp=" + csv},
		partitions: []string{"emp:2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if n, ok := e["name"].(string); ok {
			names[n] = true
		}
	}
	for _, want := range []string{"producer-start", "push", "pop", "eos", "allow-close"} {
		if !names[want] {
			t.Errorf("trace missing %q events", want)
		}
	}
}

// TestRunAnalyzeAndTraceTogether checks -analyze -trace compose: the
// analyze report still renders and the trace file is written.
func TestRunAnalyzeAndTraceTogether(t *testing.T) {
	csv := writeCSV(t, "emp.csv", empCSV)
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	out := captureStderr(t, func() error {
		return run(options{
			query:     "scan emp | agg group dept compute count",
			frames:    256,
			analyze:   true,
			tracePath: tracePath,
			schemas:   []string{"emp=id:int,dept:int,salary:float,name:string"},
			loads:     []string{"emp=" + csv},
		})
	})
	if !strings.Contains(out, "rows=4") || !strings.Contains(out, "trace written") {
		t.Fatalf("missing analyze report or trace confirmation:\n%s", out)
	}
	if _, err := os.Stat(tracePath); err != nil {
		t.Fatal(err)
	}
}

func TestRunPlanFile(t *testing.T) {
	csv := writeCSV(t, "emp.csv", empCSV)
	planPath := writeCSV(t, "q.vp", "scan emp\n| project name\n")
	err := run(options{
		planFile: planPath,
		frames:   256,
		maxRows:  2,
		schemas:  []string{"emp=id:int,dept:int,salary:float,name:string"},
		loads:    []string{"emp=" + csv},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunDurableDatabaseAcrossInvocations(t *testing.T) {
	dbPath := filepath.Join(t.TempDir(), "test.vdb")
	csv := writeCSV(t, "emp.csv", empCSV)
	// First invocation: create the db, load the table.
	err := run(options{
		query:   "scan emp | agg group dept compute count",
		frames:  256,
		db:      dbPath,
		dbPages: 4096,
		schemas: []string{"emp=id:int,dept:int,salary:float,name:string"},
		loads:   []string{"emp=" + csv},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Second invocation: reopen, query persisted data without loading.
	err = run(options{query: "scan emp | filter salary > 2500.0", frames: 256, db: dbPath, dbPages: 4096})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := []struct {
		name string
		f    func(t *testing.T) error
	}{
		{"no plan", func(t *testing.T) error {
			return run(options{frames: 256})
		}},
		{"bad plan", func(t *testing.T) error {
			return run(options{query: "bogus stage", frames: 256})
		}},
		{"missing plan file", func(t *testing.T) error {
			return run(options{planFile: filepath.Join(t.TempDir(), "nope.vp"), frames: 256})
		}},
		{"bad schema flag", func(t *testing.T) error {
			return run(options{query: "scan t", frames: 256, schemas: []string{"broken"}})
		}},
		{"bad schema type", func(t *testing.T) error {
			return run(options{query: "scan t", frames: 256, schemas: []string{"t=a:blob"}})
		}},
		{"load without schema", func(t *testing.T) error {
			csv := writeCSV(t, "x.csv", "1\n")
			return run(options{query: "scan t", frames: 256, loads: []string{"t=" + csv}})
		}},
		{"bad load flag", func(t *testing.T) error {
			return run(options{query: "scan t", frames: 256, loads: []string{"broken"}})
		}},
		{"load missing file", func(t *testing.T) error {
			return run(options{query: "scan t", frames: 256,
				schemas: []string{"t=a:int"}, loads: []string{"t=/nonexistent.csv"}})
		}},
		{"csv column mismatch", func(t *testing.T) error {
			csv := writeCSV(t, "x.csv", "1,2\n")
			return run(options{query: "scan t", frames: 256,
				schemas: []string{"t=a:int"}, loads: []string{"t=" + csv}})
		}},
		{"csv bad int", func(t *testing.T) error {
			csv := writeCSV(t, "x.csv", "notanint\n")
			return run(options{query: "scan t", frames: 256,
				schemas: []string{"t=a:int"}, loads: []string{"t=" + csv}})
		}},
		{"bad partition flag", func(t *testing.T) error {
			return run(options{query: "scan t", frames: 256, partitions: []string{"t:x"}})
		}},
		{"partition of unloaded table", func(t *testing.T) error {
			return run(options{query: "scan t", frames: 256, partitions: []string{"t:2"}})
		}},
		{"query unknown table", func(t *testing.T) error {
			return run(options{query: "scan nosuch", frames: 256})
		}},
		{"bad metrics addr", func(t *testing.T) error {
			return run(options{query: "scan nosuch", frames: 256, metricsAddr: "not-an-addr:xx"})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.f(t); err == nil {
				t.Fatalf("%s: expected error", c.name)
			}
		})
	}
}

// scrapeMetrics GETs /metrics from addr and returns the per-family
// sample counts after validating the exposition parses.
func scrapeMetrics(t *testing.T, addr string) map[string]int {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want text exposition v0.0.4", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fams, perr := metrics.ParseText(strings.NewReader(string(body)))
	if perr != nil {
		t.Fatalf("scrape is not valid exposition: %v\n%s", perr, body)
	}
	return fams
}

// TestRunMetricsEndpoint runs a parallel query with -metrics and scrapes
// the endpoint through the test seam: the exposition must parse and
// cover the buffer, device and exchange families.
func TestRunMetricsEndpoint(t *testing.T) {
	csv := writeCSV(t, "emp.csv", empCSV)
	var fams map[string]int
	_ = captureStderr(t, func() error {
		return run(options{
			query:       "pscan emp 2 | exchange producers=2 | agg group dept compute count | sort dept",
			frames:      512,
			metricsAddr: "127.0.0.1:0",
			schemas:     []string{"emp=id:int,dept:int,salary:float,name:string"},
			loads:       []string{"emp=" + csv},
			partitions:  []string{"emp:2"},
			metricsHook: func(addr string) { fams = scrapeMetrics(t, addr) },
		})
	})
	if fams == nil {
		t.Fatal("metricsHook never ran")
	}
	for _, fam := range []string{
		"volcano_buffer_fixes_total",
		"volcano_buffer_pinned_frames",
		"volcano_device_page_reads_total",
		"volcano_exchange_packets_total",
	} {
		if fams[fam] == 0 {
			t.Errorf("scrape missing family %s", fam)
		}
	}
}

// TestRunAllObservabilityFlagsTogether is the satellite acceptance
// check: -analyze, -trace and -metrics compose in one invocation — the
// analyze report renders (with latency quantiles), the trace file is
// written, and the endpoint serves a parseable exposition.
func TestRunAllObservabilityFlagsTogether(t *testing.T) {
	csv := writeCSV(t, "emp.csv", empCSV)
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	var fams map[string]int
	out := captureStderr(t, func() error {
		return run(options{
			query:       "pscan emp 2 | exchange producers=2 | agg group dept compute count | sort dept",
			frames:      512,
			analyze:     true,
			tracePath:   tracePath,
			metricsAddr: "127.0.0.1:0",
			schemas:     []string{"emp=id:int,dept:int,salary:float,name:string"},
			loads:       []string{"emp=" + csv},
			partitions:  []string{"emp:2"},
			metricsHook: func(addr string) { fams = scrapeMetrics(t, addr) },
		})
	})
	for _, want := range []string{"rows=4", "p50=", "trace written", "metrics: serving"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stderr missing %q:\n%s", want, out)
		}
	}
	if _, err := os.Stat(tracePath); err != nil {
		t.Fatal(err)
	}
	if fams == nil || fams["volcano_exchange_packets_total"] == 0 {
		t.Fatalf("metrics scrape missing exchange family: %v", fams)
	}
}

// TestObservabilityHelpMentionsAllFlags pins the -help table: anyone
// reading usage sees how the three flags compose.
func TestObservabilityHelpMentionsAllFlags(t *testing.T) {
	for _, want := range []string{"-analyze", "-trace", "-metrics", "compose"} {
		if !strings.Contains(observabilityHelp, want) {
			t.Errorf("observability help missing %q", want)
		}
	}
}

func TestParseValueKinds(t *testing.T) {
	for _, tc := range []struct {
		typ  string
		cell string
		ok   bool
	}{
		{"int", " 42 ", true}, {"int", "x", false},
		{"float", "1.5", true}, {"float", "", false},
		{"bool", "true", true}, {"bool", "maybe", false},
		{"string", "anything", true},
		{"bytes", "raw", true},
	} {
		sch, err := parseSchema("f:" + tc.typ)
		if err != nil {
			t.Fatal(err)
		}
		_, err = parseValue(sch.Field(0).Type, tc.cell)
		if (err == nil) != tc.ok {
			t.Errorf("parseValue(%s, %q): err=%v want ok=%v", tc.typ, tc.cell, err, tc.ok)
		}
	}
}

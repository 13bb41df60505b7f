package plan

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/storage/btree"
	"repro/internal/storage/device"
)

// TestBuildObservedHistograms checks the metrics-registry path of
// BuildOptions.Metrics: operator latency lands in registry-owned histograms
// (one child per node, labelled op + position) and the analyze report
// renders quantiles from them.
func TestBuildObservedHistograms(t *testing.T) {
	db := newTestDB(t)
	db.loadPartitioned(t, "nums", 200, 2)
	n, err := Parse("pscan nums 2 | exchange producers=2 | agg group v compute count")
	if err != nil {
		t.Fatal(err)
	}
	mr := metrics.NewRegistry()
	it, an, err := BuildWith(db.env, db.cat, n, BuildOptions{Analyze: true, Metrics: mr})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Drain(it, 0); err != nil {
		t.Fatal(err)
	}
	if s := an.hists[n].Snapshot(); s.Count() == 0 {
		t.Fatal("root node recorded no Next latency")
	}
	var sb strings.Builder
	if err := mr.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`volcano_op_next_seconds_bucket{node="0",op="aggregate",le="+Inf"}`,
		`node="1",op="exchange"`,
		`node="2",op="pscan"`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in exposition:\n%s", want, out)
		}
	}
	report := an.String()
	if !strings.Contains(report, "p50=") || !strings.Contains(report, "p99=") {
		t.Fatalf("analyze report missing quantiles:\n%s", report)
	}
}

// TestLiveScrapeDuringParallelQuery is the acceptance criterion run as
// a test: a parallel query executes while an HTTP client GETs /metrics
// mid-run; every scrape must be well-formed exposition covering the
// buffer, device, btree, exchange and operator families.
func TestLiveScrapeDuringParallelQuery(t *testing.T) {
	db := newTestDB(t)
	db.loadPartitioned(t, "nums", 4000, 4)

	mr := metrics.NewRegistry()
	db.env.Pool.RegisterMetrics(mr)
	device.RegisterMetrics(mr)
	btree.RegisterMetrics(mr)
	core.RegisterMetrics(mr)

	srv, err := metrics.Serve("127.0.0.1:0", mr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	n, err := Parse("pscan nums 4 | exchange producers=4 flow=on slack=2 packet=16 | agg group v compute count | sort v")
	if err != nil {
		t.Fatal(err)
	}
	it, _, err := BuildWith(db.env, db.cat, n, BuildOptions{Analyze: true, Metrics: mr})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, derr := core.Drain(it, 0)
		done <- derr
	}()

	// Scrape continuously until the query finishes, then once more.
	scrape := func() map[string]int {
		resp, err := http.Get("http://" + srv.Addr + "/metrics")
		if err != nil {
			t.Fatalf("GET /metrics: %v", err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		fams, perr := metrics.ParseText(strings.NewReader(string(body)))
		if perr != nil {
			t.Fatalf("mid-run scrape is not valid exposition: %v\n%s", perr, body)
		}
		return fams
	}
	var last map[string]int
	running := true
	for running {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
			last = scrape()
		}
	}
	last = scrape()
	for _, fam := range []string{
		"volcano_buffer_fixes_total",
		"volcano_buffer_pinned_frames",
		"volcano_device_page_reads_total",
		"volcano_btree_page_fetches_total",
		"volcano_exchange_packets_total",
		"volcano_exchange_producers_live",
		"volcano_op_next_seconds",
	} {
		if last[fam] == 0 {
			t.Errorf("final scrape missing family %s", fam)
		}
	}
}

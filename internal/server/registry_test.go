package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/plan"
)

// debugQueriesPage mirrors the /debug/queries wire shape for tests.
type debugQueriesPage struct {
	Active  int           `json:"active"`
	Queries []queryStatus `json:"queries"`
}

func getDebugQueries(t testing.TB, url string) debugQueriesPage {
	t.Helper()
	resp, err := http.Get(url + "/debug/queries")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/queries status %d", resp.StatusCode)
	}
	var page debugQueriesPage
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatalf("/debug/queries body: %v", err)
	}
	return page
}

// opRows sums Rows over an operator snapshot subtree whose description
// starts with the given prefix (e.g. "pscan", "exchange").
func opRows(s *queryStatus, prefix string) int64 {
	if s.Operators == nil {
		return 0
	}
	var total int64
	var visit func(op *plan.OpSnapshot)
	visit = func(op *plan.OpSnapshot) {
		if strings.HasPrefix(op.Op, prefix) {
			total += op.Stats.Rows
		}
		for i := range op.Inputs {
			visit(&op.Inputs[i])
		}
	}
	visit(s.Operators)
	return total
}

// TestDebugQueriesLiveScrape is the issue's race test: while a slow
// multi-producer query streams (four pscan partitions behind a
// flow-controlled exchange, joined wide), /debug/queries is scraped
// repeatedly — live OpStats snapshots racing the operator goroutines
// that update them. Run under -race this proves the registry's live view
// is data-race-free; the assertions prove it is *live*: the query
// appears under its client-chosen ID with row progress both client-side
// (rows) and operator-side (nonzero pscan rows under the exchange).
func TestDebugQueriesLiveScrape(t *testing.T) {
	_, _, ts, _ := newTestServer(t, nil)

	// emp rows with dept < pairKeys fan out 500× through the hash join:
	// ~75k result rows, produced by 4 exchange producers that keep
	// running (flow control, slack 1) while the consumer streams.
	script := "with p2 = scan pairs2\npscan emp 4 | exchange producers=4 flow=on slack=1 | join hash p2 on dept = c"
	const qid = "live-scrape-test"

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/query", strings.NewReader(script))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Volcano-Query-Id", qid)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("query status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Volcano-Query-Id"); got != qid {
		t.Fatalf("X-Volcano-Query-Id echoed %q, want %q", got, qid)
	}

	// Interleave slow body reads with debug scrapes until a scrape has
	// seen the query live with progress on both sides of the exchange.
	var sawLive, sawOpRows bool
	buf := make([]byte, 4<<10)
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := io.ReadFull(resp.Body, buf); err != nil {
			break // stream ended (EOF mid-fill): drain is done
		}
		page := getDebugQueries(t, ts.URL)
		for i := range page.Queries {
			q := &page.Queries[i]
			if q.QueryID != qid {
				continue
			}
			if q.State == "streaming" && q.Rows > 0 {
				sawLive = true
			}
			if opRows(q, "pscan") > 0 && opRows(q, "exchange") > 0 {
				sawOpRows = true
			}
			if q.Plan == "" || q.StartedAt.IsZero() || q.ElapsedMs <= 0 {
				t.Errorf("live record incomplete: %+v", q)
			}
		}
		if sawLive && sawOpRows {
			break
		}
	}
	if !sawLive || !sawOpRows {
		t.Fatalf("never saw the query live on /debug/queries (live=%v opRows=%v)", sawLive, sawOpRows)
	}

	// Drill-down while still streaming: the same tree EXPLAIN ANALYZE
	// prints, mid-flight, prefixed with the query identity.
	drill, err := http.Get(ts.URL + "/debug/queries/" + qid)
	if err != nil {
		t.Fatal(err)
	}
	if drill.StatusCode == http.StatusOK {
		var one queryStatus
		if err := json.NewDecoder(drill.Body).Decode(&one); err != nil {
			t.Fatalf("drill-down body: %v", err)
		}
		if !strings.Contains(one.Analyze, "query "+qid) || !strings.Contains(one.Analyze, "exchange") {
			t.Errorf("drill-down analyze lacks identity or tree:\n%s", one.Analyze)
		}
	}
	drill.Body.Close()

	// Drain the rest; afterwards the registry must be empty again.
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatalf("draining stream: %v", err)
	}
	waitFor(t, 10*time.Second, "registry to empty", func() bool {
		return getDebugQueries(t, ts.URL).Active == 0
	})

	// The finished query must 404 on the drill-down now.
	gone, err := http.Get(ts.URL + "/debug/queries/" + qid)
	if err != nil {
		t.Fatal(err)
	}
	gone.Body.Close()
	if gone.StatusCode != http.StatusNotFound {
		t.Errorf("finished query drill-down status %d, want 404", gone.StatusCode)
	}
}

// TestRegistryHotPathZeroAlloc is the bench guard on the one per-row
// path of a served query, rowStream.row: it renders into the stream's
// buffer and counts in plain fields, so it must never allocate and must
// not touch the query's meter between writes. The registry reads the
// rows the stream published at its last write.
func TestRegistryHotPathZeroAlloc(t *testing.T) {
	rec := &queryRecord{id: "alloc-guard", started: time.Now()}
	reg := newRegistry(newServerMetrics(nil))
	if err := reg.add(rec); err != nil {
		t.Fatal(err)
	}
	defer reg.remove(rec.id)

	cw := &countingWriter{header: http.Header{}}
	st := newRowStream(cw, &rec.meter, rowSchema, 0)
	st.buf = make([]byte, 0, 2*streamFlushBytes)
	r := core.Rec{Data: rowSchema.MustEncode(rowSeeds[0]...)}
	for i := 0; i < 10; i++ {
		if err := st.row(r); err != nil {
			t.Fatal(err)
		}
	}
	// The first row wrote; the nine after it stay in the buffer.
	if got := rec.status(false).Rows; cw.writes != 1 || got != 1 {
		t.Fatalf("after 10 rows and %d writes the registry shows %d rows, want 1 write and 1 row", cw.writes, got)
	}
	st.publish()
	if got := rec.status(false).Rows; got != 10 {
		t.Fatalf("published %d rows, registry shows %d", st.rows, got)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		_ = st.row(r)
	}); allocs != 0 {
		t.Fatalf("row stream allocates %.1f per row, want 0", allocs)
	}
}

// TestQueryIDAssignment pins the identity contract: generated IDs are
// echoed and unique, client IDs are honored, malformed ones are 400 with
// the uniform trailer-shaped error object, and a duplicate active ID is
// refused with 409.
func TestQueryIDAssignment(t *testing.T) {
	_, _, ts, _ := newTestServer(t, nil)

	// Generated: present on header and in the trailer, distinct per query.
	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		resp, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader("scan dept"))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		id := resp.Header.Get("X-Volcano-Query-Id")
		if id == "" || seen[id] {
			t.Fatalf("generated id %q (seen=%v)", id, seen[id])
		}
		seen[id] = true
		lines := strings.Split(strings.TrimSpace(string(body)), "\n")
		var tr trailer
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &tr); err != nil {
			t.Fatal(err)
		}
		if tr.QueryID != id {
			t.Errorf("trailer query_id %q != header %q", tr.QueryID, id)
		}
		if tr.ElapsedMs <= 0 || tr.Phases == nil {
			t.Errorf("trailer lacks timing: %+v", tr)
		}
	}

	// Malformed: 400, trailer-shaped JSON body.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/query", strings.NewReader("scan dept"))
	req.Header.Set("X-Volcano-Query-Id", "no spaces allowed")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed id: status %d, want 400", resp.StatusCode)
	}
	var tr trailer
	if err := json.Unmarshal(body, &tr); err != nil || tr.Status != "error" {
		t.Fatalf("malformed-id body is not a status object: %q (%v)", body, err)
	}

	// Duplicate: wedge a heavy query under an explicit ID, then reuse it.
	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/query", strings.NewReader(heavyQuery))
	req.Header.Set("X-Volcano-Query-Id", "dup-1")
	wedged, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer wedged.Body.Close()

	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/query", strings.NewReader("scan dept"))
	req.Header.Set("X-Volcano-Query-Id", "dup-1")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate id: status %d, want 409", resp.StatusCode)
	}
}

// TestAnalyzeHeader pins the X-Volcano-Analyze contract: "1" embeds this
// run's EXPLAIN ANALYZE text in the trailer, absence leaves it out, and
// a malformed value is a 400 (mirroring X-Volcano-Batch).
func TestAnalyzeHeader(t *testing.T) {
	_, _, ts, _ := newTestServer(t, nil)

	post := func(analyze string) (*http.Response, trailer, error) {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/query",
			strings.NewReader("scan emp | filter dept = 2 | sort salary desc"))
		if analyze != "" {
			req.Header.Set("X-Volcano-Analyze", analyze)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, trailer{}, err
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		lines := strings.Split(strings.TrimSpace(string(body)), "\n")
		var tr trailer
		err = json.Unmarshal([]byte(lines[len(lines)-1]), &tr)
		return resp, tr, err
	}

	resp, tr, err := post("1")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze query: %v status %d", err, resp.StatusCode)
	}
	for _, want := range []string{"sort", "filter", "scan emp", "rows=", "resources:"} {
		if !strings.Contains(tr.Analyze, want) {
			t.Errorf("analyze text lacks %q:\n%s", want, tr.Analyze)
		}
	}
	if !strings.Contains(tr.Analyze, "query "+tr.QueryID) {
		t.Errorf("analyze text lacks query identity:\n%s", tr.Analyze)
	}

	resp, tr, err = post("")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("plain query: %v status %d", err, resp.StatusCode)
	}
	if tr.Analyze != "" {
		t.Errorf("analyze embedded without the header:\n%s", tr.Analyze)
	}

	resp, _, _ = post("yes-please")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed X-Volcano-Analyze: status %d, want 400", resp.StatusCode)
	}
}

// TestPhaseMetricsAndRowOutcomes checks the new lifecycle families: all
// four phase histograms observe, and rows land in the outcome-labelled
// counter.
func TestPhaseMetricsAndRowOutcomes(t *testing.T) {
	_, _, ts, mr := newTestServer(t, nil)

	res, err := postQuery(ts, "scan emp | filter dept = 2")
	if err != nil || res.status != http.StatusOK {
		t.Fatalf("query: %v status %d", err, res.status)
	}
	for _, phase := range []string{"plan", "queued", "execute", "stream"} {
		h := mr.Histogram("volcano_server_query_phase_seconds", "",
			metrics.Label{Key: "phase", Value: phase})
		if h.Snapshot().Count() < 1 {
			t.Errorf("phase %s histogram count = %d, want >= 1", phase, h.Snapshot().Count())
		}
	}
	if got := mr.Counter("volcano_server_query_rows_total", "",
		metrics.Label{Key: "outcome", Value: "ok"}).Value(); got != int64(res.rows) {
		t.Errorf("query_rows_total{ok} = %d, want %d", got, res.rows)
	}
	if got := mr.Gauge("volcano_server_queries_active", "").Value(); got != 0 {
		t.Errorf("queries_active after completion = %d, want 0", got)
	}
}

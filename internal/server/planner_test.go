package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/record"
)

// postQueryAnalyze is postQuery with X-Volcano-Analyze: the trailer
// carries the run's EXPLAIN ANALYZE report.
func postQueryAnalyze(ts *httptest.Server, script string) (queryResult, error) {
	return postQueryAnalyzeBatch(ts, script, "")
}

// postQueryAnalyzeBatch is postQueryAnalyze with an X-Volcano-Batch
// header ("" = none).
func postQueryAnalyzeBatch(ts *httptest.Server, script, batch string) (queryResult, error) {
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/query", strings.NewReader(script))
	if err != nil {
		return queryResult{}, err
	}
	req.Header.Set("X-Volcano-Analyze", "1")
	if batch != "" {
		req.Header.Set("X-Volcano-Batch", batch)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return queryResult{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return queryResult{}, err
	}
	res := queryResult{status: resp.StatusCode, body: string(body)}
	if resp.StatusCode != http.StatusOK {
		return res, nil
	}
	lines := strings.Split(strings.TrimSpace(res.body), "\n")
	last := lines[len(lines)-1]
	res.rows = len(lines) - 1
	if err := json.Unmarshal([]byte(last), &res.trailer); err != nil || res.trailer.Status == "" {
		return res, fmt.Errorf("missing trailer, last line %q", last)
	}
	return res, nil
}

// scrapeCounter reads one counter family's total from /metrics, running
// the whole exposition through the strict parser first — a malformed
// document fails the test rather than silently greping past it.
func scrapeCounter(t *testing.T, ts *httptest.Server, family string) float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := metrics.ParseText(strings.NewReader(string(body))); err != nil {
		t.Fatalf("exposition failed strict parse: %v", err)
	}
	var total float64
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, family) {
			continue
		}
		rest := line[len(family):]
		// Exact family match: next char is a label block or the value.
		if rest == "" || (rest[0] != '{' && rest[0] != ' ') {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("bad sample line %q: %v", line, err)
		}
		total += v
	}
	return total
}

// TestPlannerAdaptiveParallelism is the headline acceptance check: a
// knobless parallel query gets its exchange fan-out from the planner
// (the pscan's partition count), and EXPLAIN ANALYZE shows estimated
// next to observed cardinality on every operator.
func TestPlannerAdaptiveParallelism(t *testing.T) {
	_, _, ts, _ := newTestServer(t, nil)
	res, err := postQueryAnalyze(ts, "pscan emp 4 | exchange")
	if err != nil {
		t.Fatal(err)
	}
	if res.status != http.StatusOK || res.trailer.Status != "ok" {
		t.Fatalf("status %d / %q: %s", res.status, res.trailer.Status, res.body)
	}
	if res.rows != empRows {
		t.Fatalf("rows = %d, want %d", res.rows, empRows)
	}
	if !strings.Contains(res.trailer.Analyze, "producers=4") {
		t.Fatalf("planner did not pick producers=4:\n%s", res.trailer.Analyze)
	}
	if !strings.Contains(res.trailer.Analyze, fmt.Sprintf("est=%d", empRows)) {
		t.Fatalf("analyze report lacks the estimated cardinality:\n%s", res.trailer.Analyze)
	}
}

// TestPlannerDisabled pins the off switch: with DisableCosting the plan
// text runs verbatim — no chosen fan-out, no estimates.
func TestPlannerDisabled(t *testing.T) {
	_, _, ts, _ := newTestServer(t, func(c *Config) { c.DisableCosting = true })
	res, err := postQueryAnalyze(ts, "pscan emp 4 | exchange")
	if err != nil {
		t.Fatal(err)
	}
	if res.trailer.Status != "ok" {
		t.Fatalf("status %q: %s", res.trailer.Status, res.body)
	}
	if !strings.Contains(res.trailer.Analyze, "producers=1") {
		t.Fatalf("uncosted plan should keep the default single producer:\n%s", res.trailer.Analyze)
	}
	if strings.Contains(res.trailer.Analyze, "est=") {
		t.Fatalf("uncosted run should carry no estimates:\n%s", res.trailer.Analyze)
	}
}

// replanProbe is a plan whose estimate must be grossly wrong on first
// contact: the model prices `id < 1` as one third of emp's 300 rows,
// the run observes 1.
const replanProbe = "scan emp | filter id < 1"

// TestPlannerReplanExactlyOnce drives the feedback loop end to end over
// the plan cache: the first run of a mis-estimated query triggers one
// re-plan, the re-costed entry converges, and further repeats leave the
// counters alone.
func TestPlannerReplanExactlyOnce(t *testing.T) {
	s, _, ts, _ := newTestServer(t, nil)
	entryOf := func() *cacheEntry {
		e, ok := s.cache.get(plan.Normalize(replanProbe))
		if !ok {
			t.Fatal("probe query has no cache entry")
		}
		return e
	}
	for i, wantReplans := range []int64{1, 1, 1} {
		res, err := postQuery(ts, replanProbe)
		if err != nil {
			t.Fatal(err)
		}
		if res.trailer.Status != "ok" || res.rows != 1 {
			t.Fatalf("run %d: status %q rows %d: %s", i, res.trailer.Status, res.rows, res.body)
		}
		if got := entryOf().replanCount(); got != wantReplans {
			t.Fatalf("after run %d: replans = %d, want %d", i, got, wantReplans)
		}
	}
	if got := scrapeCounter(t, ts, "volcano_planner_replans_total"); got != 1 {
		t.Fatalf("volcano_planner_replans_total = %v, want 1", got)
	}
	// Costed once, re-costed once after the mis-estimate, then stable.
	if got := scrapeCounter(t, ts, "volcano_planner_costed_total"); got != 2 {
		t.Fatalf("volcano_planner_costed_total = %v, want 2", got)
	}
	if got := scrapeCounter(t, ts, "volcano_planner_feedback_total"); got != 3 {
		t.Fatalf("volcano_planner_feedback_total = %v, want 3", got)
	}
}

// TestPlannerReplanConcurrent hammers one mis-estimated query from many
// goroutines: however the runs interleave, observations are only
// accepted against the cache entry's current costed plan, so the whole
// burst causes exactly one re-plan (run with -race in CI).
func TestPlannerReplanConcurrent(t *testing.T) {
	s, _, ts, _ := newTestServer(t, func(c *Config) { c.MaxConcurrent = 8 })
	const burst = 8
	var wg sync.WaitGroup
	errs := make(chan error, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := postQuery(ts, replanProbe)
			if err != nil {
				errs <- err
				return
			}
			if res.trailer.Status != "ok" || res.rows != 1 {
				errs <- fmt.Errorf("status %q rows %d", res.trailer.Status, res.rows)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// One settling run so the burst's replacement plan has executed too.
	if res, err := postQuery(ts, replanProbe); err != nil || res.trailer.Status != "ok" {
		t.Fatalf("settling run: %v %+v", err, res.trailer)
	}
	e, ok := s.cache.get(plan.Normalize(replanProbe))
	if !ok {
		t.Fatal("probe query has no cache entry")
	}
	if got := e.replanCount(); got != 1 {
		t.Fatalf("replans = %d, want exactly 1 across the burst", got)
	}
}

// TestPlannerParallelRewriteConverges drives the feedback loop over a
// plan the cost pass rewrites across its exchange: the par workload's
// shape (pscan | exchange | join hash | agg | sort) over sales, 4 000
// rows in four partitions that each meet both of its departments. The
// join moves below the exchange and the aggregate splits; the partial
// aggregate has no node in the text, so its estimate must derive from
// the combiner's — observed 2 groups — or every run would find it off
// by far more than MisEstimateFactor and re-plan again.
func TestPlannerParallelRewriteConverges(t *testing.T) {
	s, w, ts, _ := newTestServer(t, nil)
	vol := w.cat.(plan.VolumeCatalog)[0]
	salesSchema := record.MustSchema(
		record.Field{Name: "id", Type: record.TInt},
		record.Field{Name: "dept", Type: record.TInt},
		record.Field{Name: "salary", Type: record.TFloat},
	)
	const salesRows, salesDepts = 4000, 2
	for p := 0; p < empParts; p++ {
		f := mustCreate(t, vol, fmt.Sprintf("sales.%d", p), salesSchema)
		for i := p; i < salesRows; i += empParts {
			mustInsert(t, f, salesSchema.MustEncode(
				record.Int(int64(i)), record.Int(int64(i/empParts%salesDepts)), record.Float(float64(i%100))))
		}
	}
	const query = "with d = scan dept\npscan sales 4 | exchange producers=4 packet=83 flow=on slack=4 | join hash d on dept = dno | agg group budget compute count, sum(id), max(salary) | sort budget"
	for i := 0; i < 5; i++ {
		res, err := postQueryAnalyze(ts, query)
		if err != nil {
			t.Fatal(err)
		}
		if res.trailer.Status != "ok" || res.rows != salesDepts {
			t.Fatalf("run %d: status %q rows %d: %s", i, res.trailer.Status, res.rows, res.body)
		}
		// The exchange carries each producer's groups, not the table.
		want := fmt.Sprintf("records=%d ", empParts*salesDepts)
		if !strings.Contains(res.trailer.Analyze, "aggregate combine") || !strings.Contains(res.trailer.Analyze, want) {
			t.Fatalf("run %d: plan not rewritten or exchange not carrying %s:\n%s", i, want, res.trailer.Analyze)
		}
	}
	e, ok := s.cache.get(plan.Normalize(query))
	if !ok {
		t.Fatal("query has no cache entry")
	}
	if got := e.replanCount(); got > 1 {
		t.Errorf("replans = %d, want at most 1", got)
	}
	if got := scrapeCounter(t, ts, "volcano_planner_replans_total"); got > 1 {
		t.Errorf("volcano_planner_replans_total = %v, want at most 1", got)
	}
	if got := scrapeCounter(t, ts, "volcano_planner_costed_total"); got > 2 {
		t.Errorf("volcano_planner_costed_total = %v, want at most 2", got)
	}
}

package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/record"
	"repro/internal/storage/buffer"
	"repro/internal/storage/device"
	"repro/internal/storage/file"
)

// world is the shared execution fixture: one buffer pool, one catalog
// volume, one temp volume — exactly what a volcano-serve process shares
// across every query it admits.
type world struct {
	pool *buffer.Pool
	env  *core.Env
	cat  plan.Catalog
}

const (
	empRows   = 300
	empDepts  = 8
	empParts  = 4
	pairRows  = 2000
	pairKeys  = 4
	deptRows  = empDepts
	crossRows = pairKeys * (pairRows / pairKeys) * (pairRows / pairKeys) // join pairs⨝pairs2 on key
)

// newWorld builds the fixture tables:
//
//	emp(id:int, dept:int, salary:float, name:string), also partitioned
//	  into emp.0..emp.3 for pscan
//	dept(dno:int, budget:float)
//	pairs(a:int, b:int), pairs2(c:int, d:int) — a and c skewed over
//	  pairKeys values, so pairs ⨝ pairs2 explodes to crossRows rows: the
//	  "heavy" query the saturation and disconnect tests lean on.
func newWorld(t testing.TB) *world {
	t.Helper()
	w, vol := newEmptyWorld(t)

	empSchema := record.MustSchema(
		record.Field{Name: "id", Type: record.TInt},
		record.Field{Name: "dept", Type: record.TInt},
		record.Field{Name: "salary", Type: record.TFloat},
		record.Field{Name: "name", Type: record.TString},
	)
	emp := mustCreate(t, vol, "emp", empSchema)
	parts := make([]*file.File, empParts)
	for p := range parts {
		parts[p] = mustCreate(t, vol, fmt.Sprintf("emp.%d", p), empSchema)
	}
	for i := 0; i < empRows; i++ {
		data := empSchema.MustEncode(
			record.Int(int64(i)),
			record.Int(int64(i%empDepts)),
			record.Float(1000+float64(i%50)*10),
			record.Str(fmt.Sprintf("emp-%d", i)),
		)
		mustInsert(t, emp, data)
		mustInsert(t, parts[i%empParts], data)
	}

	deptSchema := record.MustSchema(
		record.Field{Name: "dno", Type: record.TInt},
		record.Field{Name: "budget", Type: record.TFloat},
	)
	dept := mustCreate(t, vol, "dept", deptSchema)
	for i := 0; i < deptRows; i++ {
		mustInsert(t, dept, deptSchema.MustEncode(record.Int(int64(i)), record.Float(float64(100*i))))
	}

	pairSchema := record.MustSchema(
		record.Field{Name: "a", Type: record.TInt},
		record.Field{Name: "b", Type: record.TInt},
	)
	pair2Schema := record.MustSchema(
		record.Field{Name: "c", Type: record.TInt},
		record.Field{Name: "d", Type: record.TInt},
	)
	pairs := mustCreate(t, vol, "pairs", pairSchema)
	pairs2 := mustCreate(t, vol, "pairs2", pair2Schema)
	for i := 0; i < pairRows; i++ {
		mustInsert(t, pairs, pairSchema.MustEncode(record.Int(int64(i%pairKeys)), record.Int(int64(i))))
		mustInsert(t, pairs2, pair2Schema.MustEncode(record.Int(int64(i%pairKeys)), record.Int(int64(i))))
	}

	return w
}

// newEmptyWorld builds a world with no tables and returns the catalog
// volume to create them on.
func newEmptyWorld(t testing.TB) (*world, *file.Volume) {
	t.Helper()
	reg := device.NewRegistry()
	baseID := reg.NextID()
	if err := reg.Mount(device.NewMem(baseID)); err != nil {
		t.Fatal(err)
	}
	tempID := reg.NextID()
	if err := reg.Mount(device.NewMem(tempID)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.CloseAll() })
	pool := buffer.NewPool(reg, 1024, buffer.TwoLevel)
	vol := file.NewVolume(pool, baseID)
	return &world{
		pool: pool,
		env:  core.NewEnv(pool, file.NewVolume(pool, tempID)),
		cat:  plan.VolumeCatalog{vol},
	}, vol
}

func mustCreate(t testing.TB, vol *file.Volume, name string, s *record.Schema) *file.File {
	t.Helper()
	f, err := vol.Create(name, s)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func mustInsert(t testing.TB, f *file.File, data []byte) {
	t.Helper()
	if _, err := f.Insert(data); err != nil {
		t.Fatal(err)
	}
}

// heavyQuery produces crossRows (≈2M) result rows — megabytes of NDJSON,
// far beyond the kernel socket buffers, so a client that does not read
// the body wedges the handler in Write for as long as the test needs.
const heavyQuery = "with p2 = scan pairs2\nscan pairs | join hash p2 on a = c"

// newTestServer wires a Server over a fresh world onto an httptest
// listener. The mutate callback adjusts the config before New.
func newTestServer(t testing.TB, mutate func(*Config)) (*Server, *world, *httptest.Server, *metrics.Registry) {
	t.Helper()
	w := newWorld(t)
	mr := metrics.NewRegistry()
	cfg := Config{
		Env:            w.env,
		Catalog:        w.cat,
		CatalogVersion: "test-v1",
		Metrics:        mr,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, w, ts, mr
}

// queryResult is a fully read streamed response.
type queryResult struct {
	status  int
	rows    int
	trailer trailer
	body    string
}

// postQuery runs one plan script and reads the whole NDJSON stream,
// checking that every line is valid JSON and exactly one trailer
// terminates the body.
func postQuery(ts *httptest.Server, script string) (queryResult, error) {
	return postQueryBatch(ts, script, "")
}

// postQueryBatch is postQuery with an X-Volcano-Batch header ("" = none).
func postQueryBatch(ts *httptest.Server, script, batch string) (queryResult, error) {
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/query", strings.NewReader(script))
	if err != nil {
		return queryResult{}, err
	}
	req.Header.Set("Content-Type", "text/plain")
	if batch != "" {
		req.Header.Set("X-Volcano-Batch", batch)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return queryResult{}, err
	}
	return readQueryResult(resp)
}

// readQueryResult reads and checks a /query response as postQuery does.
func readQueryResult(resp *http.Response) (queryResult, error) {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return queryResult{}, err
	}
	res := queryResult{status: resp.StatusCode, body: string(body)}
	if resp.StatusCode != http.StatusOK {
		return res, nil
	}
	sc := bufio.NewScanner(strings.NewReader(res.body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var last string
	for sc.Scan() {
		line := sc.Text()
		var v map[string]any
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			return res, fmt.Errorf("invalid NDJSON line %q: %w", line, err)
		}
		if last != "" {
			res.rows++
		}
		last = line
	}
	if last == "" {
		return res, fmt.Errorf("empty response body")
	}
	if err := json.Unmarshal([]byte(last), &res.trailer); err != nil || res.trailer.Status == "" {
		return res, fmt.Errorf("missing trailer, last line %q", last)
	}
	if int64(res.rows) != res.trailer.Rows {
		return res, fmt.Errorf("trailer says %d rows, body has %d", res.trailer.Rows, res.rows)
	}
	return res, nil
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t testing.TB, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// TestConcurrentQueriesSharedPool is the acceptance test of the issue:
// many concurrent streamed queries of different shapes — serial scans,
// parallel pscan/exchange plans, hash joins, aggregation — over ONE
// shared buffer pool and volume, under the race detector. Afterwards the
// pool must hold zero pinned frames and the process must be back to its
// goroutine baseline: no producer or handler leaked.
func TestConcurrentQueriesSharedPool(t *testing.T) {
	s, w, ts, mr := newTestServer(t, func(c *Config) {
		c.MaxConcurrent = 10
		c.MaxProducers = 64
	})
	_ = s

	// Row counts depend on the generator loops; compute them rather than
	// hard-coding modular arithmetic.
	dept2, salaried := 0, 0
	for i := 0; i < empRows; i++ {
		if i%empDepts == 2 {
			dept2++
		}
		if 1000+float64(i%50)*10 > 1200 {
			salaried++
		}
	}
	cases := []struct {
		script string
		rows   int
	}{
		{"scan emp | filter dept = 2 | sort salary desc", dept2},
		{"pscan emp 4 | exchange producers=4 | agg group dept compute count", empDepts},
		{"scan emp | project name, salary * 1.1 as raised", empRows},
		{"with d = scan dept\nscan emp | join hash d on dept = dno", empRows},
		{"scan emp | agg group dept compute count, sum(salary)", empDepts},
		{"pscan emp 4 | exchange producers=4 packet=7", empRows},
		{"scan emp | filter salary > 1200 | project id", salaried},
		{"pscan emp 4 | exchange producers=4 flow=on slack=2 | sort id", empRows},
	}

	baseline := runtime.NumGoroutine()
	const rounds = 3 // every query shape runs 3×, so 24 streams total
	errs := make(chan error, rounds*len(cases))
	launch := func() {
		for _, c := range cases {
			c := c
			go func() {
				res, err := postQuery(ts, c.script)
				if err == nil {
					if res.status != http.StatusOK {
						err = fmt.Errorf("%q: status %d: %s", c.script, res.status, res.body)
					} else if res.trailer.Status != "ok" {
						err = fmt.Errorf("%q: trailer %+v", c.script, res.trailer)
					} else if res.rows != c.rows {
						err = fmt.Errorf("%q: %d rows, want %d", c.script, res.rows, c.rows)
					}
				}
				errs <- err
			}()
		}
	}
	collect := func(n int) {
		for i := 0; i < n; i++ {
			if err := <-errs; err != nil {
				t.Error(err)
			}
		}
	}
	// The first round, every shape at once, compiles each shape; it ends
	// before the other rounds run together, so no two requests for one
	// shape can both miss the plan cache.
	launch()
	collect(len(cases))
	for r := 1; r < rounds; r++ {
		launch()
	}
	collect((rounds - 1) * len(cases))

	if got := w.pool.Stats().CurrentlyFixedHint; got != 0 {
		t.Errorf("pinned frames after all queries done: %d, want 0", got)
	}
	// postQuery rides http.DefaultClient; park its keep-alive connections
	// so the server side's per-connection goroutines can exit too.
	http.DefaultClient.CloseIdleConnections()
	ts.Client().CloseIdleConnections()
	waitFor(t, 10*time.Second, "goroutines to return to baseline", func() bool {
		return runtime.NumGoroutine() <= baseline+4
	})

	// Every shape ran 3×: the first execution compiles, the rest must hit
	// the plan cache.
	hits := mr.Counter("volcano_server_plan_cache_hits_total", "").Value()
	misses := mr.Counter("volcano_server_plan_cache_misses_total", "").Value()
	if want := int64(len(cases) * (rounds - 1)); hits < want {
		t.Errorf("plan cache hits = %d, want >= %d (misses %d)", hits, want, misses)
	}
}

// TestPlanCacheNormalization checks that textual variants of one query —
// comments, stage line breaks, extra blank lines — share a cache entry,
// and that a catalog version bump would not (cache key includes it).
func TestPlanCacheNormalization(t *testing.T) {
	_, _, ts, mr := newTestServer(t, nil)
	hits := mr.Counter("volcano_server_plan_cache_hits_total", "")

	variants := []string{
		"scan emp | filter dept = 2",
		"scan emp\n| filter dept = 2",
		"# comment\nscan emp   | filter dept = 2  # trailing",
		"\n\nscan emp\n  | filter dept = 2\n",
	}
	for i, v := range variants {
		res, err := postQuery(ts, v)
		if err != nil || res.status != http.StatusOK {
			t.Fatalf("variant %d: %v status %d", i, err, res.status)
		}
	}
	if got := hits.Value(); got != int64(len(variants)-1) {
		t.Errorf("cache hits = %d, want %d (all variants normalize alike)", got, len(variants)-1)
	}
}

// TestParseErrorsReturn400 pins the 400 path: the body must carry the
// parser's line/stage positions so clients can fix their scripts.
func TestParseErrorsReturn400(t *testing.T) {
	_, _, ts, _ := newTestServer(t, nil)

	res, err := postQuery(ts, "scan emp\n| filter dept = 2\n| projct name")
	if err != nil {
		t.Fatal(err)
	}
	if res.status != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", res.status)
	}
	if !strings.Contains(res.body, "line 3, stage 3") || !strings.Contains(res.body, "projct") {
		t.Errorf("400 body lacks position info: %q", res.body)
	}

	// Unknown table: parses, fails at build time, still a 400.
	res, err = postQuery(ts, "scan nosuch")
	if err != nil {
		t.Fatal(err)
	}
	if res.status != http.StatusBadRequest {
		t.Errorf("unknown table: status = %d, want 400: %s", res.status, res.body)
	}

	// A plan demanding more producers than the server budget: 400, not 429.
	res, err = postQuery(ts, "scan emp | exchange producers=500")
	if err != nil {
		t.Fatal(err)
	}
	if res.status != http.StatusBadRequest {
		t.Errorf("too-parallel plan: status = %d, want 400: %s", res.status, res.body)
	}
}

// TestMixedKeyTypesReturn400 sends joins and a division whose key pairs
// mix types: each is a 400 naming the stage and both fields with their
// types, and the next query on the same server runs with nothing left
// pinned.
func TestMixedKeyTypesReturn400(t *testing.T) {
	_, w, ts, _ := newTestServer(t, nil)
	for _, c := range []struct{ script, want string }{
		{"with d = scan dept\nscan emp\n| join merge d on name = dno", "name (string) and dno (int)"},
		{"with d = scan dept\nscan emp\n| join hash d on id = budget", "id (int) and budget (float)"},
		{"with d = scan dept\nscan emp\n| divide sort d quot dept div name on dno", "name (string) and dno (int)"},
	} {
		res, err := postQuery(ts, c.script)
		if err != nil {
			t.Fatal(err)
		}
		if res.status != http.StatusBadRequest || !strings.Contains(res.body, "line 3, stage 2") || !strings.Contains(res.body, c.want) {
			t.Errorf("%q: status %d, body %q; want a 400 at line 3, stage 2 naming %s", c.script, res.status, res.body, c.want)
		}
	}
	res, err := postQuery(ts, "with d = scan dept\nscan emp | join hash d on dept = dno")
	if err != nil {
		t.Fatal(err)
	}
	if res.status != http.StatusOK || res.rows != empRows {
		t.Fatalf("query after the rejects: status %d, %d rows, want 200 and %d: %s", res.status, res.rows, empRows, res.body)
	}
	if n := w.pool.PinnedFrames(); n != 0 {
		t.Fatalf("%d frames pinned after the rejects", n)
	}
}

// TestSaturation429AndQueueWait drives the server into saturation with a
// wedged heavy query (the client never reads, so TCP backpressure parks
// the handler mid-stream), fills the wait queue, and asserts the
// acceptance criteria: the overflow query gets 429, the queue-wait
// histogram is non-empty, and a /metrics scrape taken in that state
// parses cleanly and contains the volcano_server_* families.
func TestSaturation429AndQueueWait(t *testing.T) {
	s, _, ts, mr := newTestServer(t, func(c *Config) {
		c.MaxConcurrent = 1
		c.MaxQueue = 1
		c.QueueWait = 30 * time.Second
	})
	inFlight := mr.Gauge("volcano_server_in_flight", "")

	// Query A: admitted, then wedged writing to a client that won't read.
	respA, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader(heavyQuery))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "query A in flight", func() bool { return inFlight.Value() == 1 })

	// Query B: queues behind A.
	bDone := make(chan queryResult, 1)
	go func() {
		res, err := postQuery(ts, "scan emp | filter dept = 1")
		if err != nil {
			res.body = err.Error()
		}
		bDone <- res
	}()
	waitFor(t, 10*time.Second, "query B queued", func() bool { return s.gov.queueLen() == 1 })

	// Query C: queue full now — must bounce with 429 immediately.
	res, err := postQuery(ts, "scan emp")
	if err != nil {
		t.Fatal(err)
	}
	if res.status != http.StatusTooManyRequests {
		t.Fatalf("overflow query: status = %d, want 429: %s", res.status, res.body)
	}

	// Scrape while saturated: the exposition must parse and carry the
	// server families.
	scrape, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	families, err := metrics.ParseText(scrape.Body)
	scrape.Body.Close()
	if err != nil {
		t.Fatalf("mid-saturation scrape does not parse: %v", err)
	}
	for _, f := range []string{
		"volcano_server_in_flight",
		"volcano_server_rejected_total",
		"volcano_server_queue_wait_seconds",
		"volcano_server_admitted_total",
	} {
		if families[f] == 0 {
			t.Errorf("scrape missing family %s", f)
		}
	}

	// Release A: closing the response tears its connection down, the
	// request context cancels, and the Done channel aborts the exchange-
	// less plan via the per-row check. B must then be admitted and finish.
	respA.Body.Close()
	resB := <-bDone
	if resB.status != http.StatusOK || resB.trailer.Status != "ok" {
		t.Fatalf("queued query after release: status %d trailer %+v body %s", resB.status, resB.trailer, resB.body)
	}
	wantB := 0
	for i := 0; i < empRows; i++ {
		if i%empDepts == 1 {
			wantB++
		}
	}
	if resB.rows != wantB {
		t.Errorf("queued query rows = %d, want %d", resB.rows, wantB)
	}

	if got := mr.Counter("volcano_server_rejected_total", "", metrics.Label{Key: "reason", Value: "saturated"}).Value(); got != 1 {
		t.Errorf("rejected{saturated} = %d, want 1", got)
	}
	if got := mr.Histogram("volcano_server_queue_wait_seconds", "").Snapshot().Count(); got < 1 {
		t.Errorf("queue-wait histogram count = %d, want >= 1", got)
	}
	if got := mr.Counter("volcano_server_canceled_total", "").Value(); got < 1 {
		t.Errorf("canceled counter = %d, want >= 1 (query A was abandoned)", got)
	}
}

// TestDrainFinishesInFlight pins graceful shutdown: Drain stops admission
// (healthz flips to 503, new queries bounce) but the in-flight query runs
// to completion with an intact trailer before Drain returns.
func TestDrainFinishesInFlight(t *testing.T) {
	s, w, ts, mr := newTestServer(t, func(c *Config) {
		c.MaxConcurrent = 2
	})
	inFlight := mr.Gauge("volcano_server_in_flight", "")

	// The cross join grinds through ~1M intermediate rows but aggregates
	// them down to pairKeys result rows: long enough to overlap Drain,
	// cheap enough to stream.
	slowQuery := "with p2 = scan pairs2 | filter d < 500\nscan pairs | join hash p2 on a = c | agg group a compute count"
	aDone := make(chan queryResult, 1)
	go func() {
		res, err := postQuery(ts, slowQuery) // reads everything: finishes on its own
		if err != nil {
			res.body = err.Error()
		}
		aDone <- res
	}()
	waitFor(t, 10*time.Second, "heavy query in flight", func() bool { return inFlight.Value() == 1 })

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(contextWithTimeout(t, 60*time.Second)) }()
	waitFor(t, 5*time.Second, "server draining", func() bool { return s.life.isDraining() })

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining = %d, want 503", hz.StatusCode)
	}
	res, err := postQuery(ts, "scan emp")
	if err != nil {
		t.Fatal(err)
	}
	if res.status != http.StatusServiceUnavailable {
		t.Errorf("query while draining = %d, want 503: %s", res.status, res.body)
	}

	resA := <-aDone
	if resA.status != http.StatusOK || resA.trailer.Status != "ok" || resA.rows != pairKeys {
		t.Fatalf("in-flight query under drain: status %d rows %d trailer %+v", resA.status, resA.rows, resA.trailer)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if got := w.pool.Stats().CurrentlyFixedHint; got != 0 {
		t.Errorf("pinned frames after drain: %d, want 0", got)
	}
}

func contextWithTimeout(t testing.TB, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

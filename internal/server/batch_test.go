package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/storage/btree"
)

// splitRows returns the response's data lines (everything but the
// trailer) sorted, so nondeterministic exchange arrival order does not
// flap the comparison.
func splitRows(res queryResult) []string {
	lines := strings.Split(strings.TrimRight(res.body, "\n"), "\n")
	rows := lines[:len(lines)-1] // last line is the trailer
	sort.Strings(rows)
	return rows
}

// TestBatchExecution runs the same queries record-at-a-time (header 1)
// and at larger batch sizes — the server default, a configured size, and
// a per-request header size — and requires identical result sets.
func TestBatchExecution(t *testing.T) {
	srv, _, ts, _ := newTestServer(t, nil)
	_, _, tsBatch, _ := newTestServer(t, func(c *Config) { c.BatchSize = 5 })
	negative, _, _, _ := newTestServer(t, func(c *Config) { c.BatchSize = -3 })
	for _, s := range []*Server{srv, negative} {
		if s.cfg.BatchSize != core.DefaultBatchSize {
			t.Fatalf("Config.BatchSize ≤ 0 became %d, want the default %d", s.cfg.BatchSize, core.DefaultBatchSize)
		}
	}

	scripts := []string{
		"scan emp | filter dept = 2 | sort salary desc, id",
		"pscan emp 4 | exchange producers=4 | agg group dept compute count",
		"with d = scan dept\nscan emp | join hash d on dept = dno",
	}
	for _, script := range scripts {
		row, err := postQueryBatch(ts, script, "1")
		if err != nil {
			t.Fatalf("row %q: %v", script, err)
		}
		if row.trailer.Status != "ok" {
			t.Fatalf("row %q: trailer %+v", script, row.trailer)
		}
		for name, res := range map[string]queryResult{
			"server default":                       mustQuery(t, func() (queryResult, error) { return postQuery(ts, script) }),
			"header size 7":                        mustQuery(t, func() (queryResult, error) { return postQueryBatch(ts, script, "7") }),
			"configured size":                      mustQuery(t, func() (queryResult, error) { return postQuery(tsBatch, script) }),
			"header size 1 over a configured size": mustQuery(t, func() (queryResult, error) { return postQueryBatch(tsBatch, script, "1") }),
		} {
			if res.trailer.Status != "ok" {
				t.Fatalf("%s %q: trailer %+v", name, script, res.trailer)
			}
			if res.rows != row.rows {
				t.Errorf("%s %q: %d rows, batch size 1 gave %d", name, script, res.rows, row.rows)
			}
			got, want := splitRows(res), splitRows(row)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s %q: row %d differs:\n got %s\nwant %s", name, script, i, got[i], want[i])
				}
			}
		}
	}
}

func mustQuery(t *testing.T, f func() (queryResult, error)) queryResult {
	t.Helper()
	res, err := f()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// flushProbe is a ResponseWriter that records how many rows the body
// held at each Flush.
type flushProbe struct {
	*httptest.ResponseRecorder
	rowsAtFlush []int
}

func (p *flushProbe) Flush() {
	p.rowsAtFlush = append(p.rowsAtFlush, strings.Count(p.Body.String(), "\n"))
	p.ResponseRecorder.Flush()
}

// TestFirstRowFlushedFirst pins the stream's flush cadence at the served
// batch size and record-at-a-time: the first flush carries exactly one row, then one flush
// follows every FlushEvery rows, and the last carries the trailer.
func TestFirstRowFlushedFirst(t *testing.T) {
	srv, _, _, _ := newTestServer(t, nil)
	for _, batch := range []string{"", "1"} {
		req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader("scan emp"))
		if batch != "" {
			req.Header.Set("X-Volcano-Batch", batch)
		}
		p := &flushProbe{ResponseRecorder: httptest.NewRecorder()}
		srv.Handler().ServeHTTP(p, req)
		want := []int{1}
		for n := srv.cfg.FlushEvery; n <= empRows; n += srv.cfg.FlushEvery {
			want = append(want, n)
		}
		want = append(want, empRows+1)
		if fmt.Sprint(p.rowsAtFlush) != fmt.Sprint(want) {
			t.Errorf("X-Volcano-Batch %q: rows at each flush %v, want %v", batch, p.rowsAtFlush, want)
		}
	}
}

// TestPointDrainAllocatesNoFullBatch guards the lazy full-size batch: the
// drain of a one-row index scan at the served batch size makes as many
// allocations as at batch size 1, where no batch but the one-slot one is
// ever made, and less than a full batch's worth of bytes more. A two-row
// scan shows the guard can see a full batch.
func TestPointDrainAllocatesNoFullBatch(t *testing.T) {
	w := newWorld(t)
	vol := w.cat.(plan.VolumeCatalog)[0]
	emp, err := w.cat.Lookup("emp")
	if err != nil {
		t.Fatal(err)
	}
	tree, err := btree.Create(w.pool, emp.FirstPage().Dev)
	if err != nil {
		t.Fatal(err)
	}
	s := emp.NewScan(false)
	for {
		r, ok, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		id, _ := emp.Schema().Get(r.Data, 0)
		if err := tree.Insert(btree.EncodeKey(id), r.RID); err != nil {
			t.Fatal(err)
		}
		r.Unfix()
	}
	s.Close()
	vol.SaveIndex("emp_id", tree)

	// drain returns the allocations and the bytes allocated per drain. The
	// byte count tells a full-size batch from the one-slot one, which the
	// allocation count alone cannot.
	drain := func(script string, size, wantRows int) (allocs, bytes float64) {
		tpl, err := plan.Compile(script)
		if err != nil {
			t.Fatal(err)
		}
		it, _, err := tpl.Build(w.env, w.cat, plan.BuildOptions{Analyze: true, BatchSize: core.DefaultBatchSize})
		if err != nil {
			t.Fatal(err)
		}
		rows := 0
		count := func(core.Rec) error { rows++; return nil }
		run := func() {
			if err := it.Open(); err != nil {
				t.Fatal(err)
			}
			if err := drainBatches(context.Background(), it, size, count); err != nil {
				t.Fatal(err)
			}
			if err := it.Close(); err != nil {
				t.Fatal(err)
			}
		}
		const runs = 20
		allocs = testing.AllocsPerRun(runs, run)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		if rows != (2*runs+1)*wantRows {
			t.Fatalf("%s: %d rows over %d drains, want %d each", script, rows, 2*runs+1, wantRows)
		}
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	full := float64(core.DefaultBatchSize) * float64(unsafe.Sizeof(core.Rec{}))
	const point, pair = "iscan emp emp_id 7 7", "iscan emp emp_id 7 8"
	served, servedBytes := drain(point, core.DefaultBatchSize, 1)
	floor, floorBytes := drain(point, 1, 1)
	if served != floor || servedBytes-floorBytes >= full/2 {
		t.Errorf("one-row drain: %.0f allocations, %.0f bytes at batch %d; %.0f, %.0f at batch 1: the full-size batch came early",
			served, servedBytes, core.DefaultBatchSize, floor, floorBytes)
	}
	if _, servedBytes := drain(pair, core.DefaultBatchSize, 2); servedBytes-floorBytes < full {
		t.Fatalf("two-row drain at batch %d allocates %.0f bytes, one row at batch 1 %.0f: the guard cannot see a full batch",
			core.DefaultBatchSize, servedBytes, floorBytes)
	}
	if p := w.pool.Stats().CurrentlyFixedHint; p != 0 {
		t.Fatalf("%d pins left", p)
	}
}

// TestBatchHeaderValidation rejects malformed and out-of-range
// X-Volcano-Batch values before admission.
func TestBatchHeaderValidation(t *testing.T) {
	_, _, ts, _ := newTestServer(t, nil)
	for _, bad := range []string{"-1", "x", "1.5", "0", "4097"} {
		res, err := postQueryBatch(ts, "scan emp", bad)
		if err != nil {
			t.Fatal(err)
		}
		if res.status != http.StatusBadRequest {
			t.Errorf("X-Volcano-Batch=%q: status %d, want 400", bad, res.status)
		}
	}
}

// TestBatchHeaderBounded sends a batch size that would size a huge
// allocation, with the filter below and above a parallel exchange: each
// request is a 400 naming the record-at-a-time size, not a panic in a
// producer goroutine or a handler, and the server answers the next query.
func TestBatchHeaderBounded(t *testing.T) {
	_, _, ts, _ := newTestServer(t, nil)
	for _, script := range []string{
		"pscan emp 4 | filter id > 0 | exchange producers=4",
		"pscan emp 4 | exchange producers=4 | filter id > 0",
	} {
		res, err := postQueryBatch(ts, script, "4611686018427387904")
		if err != nil {
			t.Fatal(err)
		}
		if res.status != http.StatusBadRequest || !strings.Contains(res.body, "1 is record-at-a-time") {
			t.Errorf("%q: status %d, body %q; want 400 naming the record-at-a-time size", script, res.status, res.body)
		}
	}
	res, err := postQuery(ts, "pscan emp 4 | exchange producers=4")
	if err != nil {
		t.Fatal(err)
	}
	if res.trailer.Status != "ok" || res.rows != empRows {
		t.Fatalf("query after the refusals: trailer %+v, %d rows", res.trailer, res.rows)
	}
}

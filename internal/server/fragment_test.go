package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/plan"
	"repro/internal/storage/file"
)

// gate holds fragment streams while it is shut; a zero gate is open.
type gate struct{ ch atomic.Pointer[chan struct{}] }

func (g *gate) shut() {
	ch := make(chan struct{})
	g.ch.Store(&ch)
}

func (g *gate) open() { close(*g.ch.Load()) }

// stallWriter holds every write of a fragment's stream while its gate is
// shut and the request lives: the fragment is admitted, registered and
// running, with its 200 header out, and cannot finish. A refusal's body
// is not held.
type stallWriter struct {
	http.ResponseWriter
	g         *gate
	done      <-chan struct{}
	streaming bool // a 200 went out
}

func (w *stallWriter) WriteHeader(code int) {
	w.streaming = code == http.StatusOK
	w.ResponseWriter.WriteHeader(code)
}

func (w *stallWriter) Write(p []byte) (int, error) {
	if ch := w.g.ch.Load(); ch != nil && w.streaming {
		select {
		case <-*ch:
		case <-w.done:
		}
	}
	return w.ResponseWriter.Write(p)
}

func (w *stallWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// stallFragments wraps a node's handler so that its fragment streams
// stall while g is shut.
func stallFragments(g *gate) func(http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/fragment" {
				w = &stallWriter{ResponseWriter: w, g: g, done: r.Context().Done()}
			}
			h.ServeHTTP(w, r)
		})
	}
}

// postQueryID is postQuery under a client-chosen query ID.
func postQueryID(ts string, id, script string) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPost, ts+"/query", strings.NewReader(script))
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-Volcano-Query-Id", id)
	return http.DefaultClient.Do(req)
}

// TestFragmentAdmission ships a query's four fragments to one worker
// node whose producer budget is two. The excess waits in the node's
// admission queue — fragments take no query slot, and a wait is not a
// refusal — and the query's rows equal a single process's. No pin is
// left on either node, and no goroutine outlives the query.
func TestFragmentAdmission(t *testing.T) {
	const query = "pscan emp 4 | exchange producers=4 packet=16"
	var g gate
	workerWorld := newWorld(t)
	worker, workerTS := newWorkerNode(t, Config{
		Env: workerWorld.env, Catalog: workerWorld.cat, MaxConcurrent: 1, MaxProducers: 2,
	}, stallFragments(&g))
	coord := newCoordinator(t, workerTS.URL)
	_, coordWorld, coordTS, _ := newTestServer(t, func(c *Config) { c.Dist = coord })

	_, _, soloTS, _ := newTestServer(t, nil)
	solo, err := postQuery(soloTS, query)
	if err != nil || solo.trailer.Status != "ok" || solo.rows != empRows {
		t.Fatalf("solo run: %d rows, %+v, %v", solo.rows, solo.trailer, err)
	}
	// Warm up the coordinator's dispatch connections, so the baseline
	// holds them.
	if res, err := postQuery(coordTS, query); err != nil || res.trailer.Status != "ok" {
		t.Fatalf("warm-up: %+v, %v", res.trailer, err)
	}
	http.DefaultClient.CloseIdleConnections()
	time.Sleep(200 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	g.shut()
	type result struct {
		res queryResult
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := postQuery(coordTS, query)
		done <- result{res, err}
	}()
	// Two fragments hold the budget and stall; two wait for it.
	waitFor(t, 10*time.Second, "two fragments queued on the worker", func() bool { return worker.gov.queueLen() == 2 })
	g.open()
	got := <-done
	if got.err != nil || got.res.trailer.Status != "ok" {
		t.Fatalf("fleet run: %+v, %v", got.res.trailer, got.err)
	}
	if g, w := strings.Join(bodyRows(got.res), "\n"), strings.Join(bodyRows(solo), "\n"); g != w {
		t.Fatalf("fleet rows differ from the solo run's:\n%s\nwant:\n%s", g, w)
	}
	d := got.res.trailer.Dist
	if d == nil || len(d.Fragments) != empParts || d.Retries != 0 {
		t.Fatalf("dist block %+v, want %d fragments and no retry", d, empParts)
	}
	for _, f := range d.Fragments {
		if f.State != "done" || f.Attempts != 1 {
			t.Errorf("fragment %+v: want done on its first attempt", f)
		}
	}
	for name, w := range map[string]*world{"coordinator": coordWorld, "worker": workerWorld} {
		if n := w.pool.Stats().CurrentlyFixedHint; n != 0 {
			t.Errorf("%s holds %d pins after the query", name, n)
		}
	}
	http.DefaultClient.CloseIdleConnections()
	waitFor(t, 10*time.Second, "goroutines to return to baseline", func() bool {
		return runtime.NumGoroutine() <= baseline+4
	})
}

// missingTable is a catalog without one table.
type missingTable struct {
	plan.Catalog
	name string
}

func (c missingTable) Lookup(name string) (*file.File, error) {
	if name == c.name {
		return nil, fmt.Errorf("no table %q on this node", name)
	}
	return c.Catalog.Lookup(name)
}

// TestFragmentDebugViewsAndDrain reads a worker node the way an operator
// would. A stalled fragment is on its /debug/queries as kind fragment,
// naming the coordinator's query; Drain with that fragment in flight
// finishes it, so the query completes; and a fragment whose build fails
// leaves a slow-log entry naming the query it belonged to.
func TestFragmentDebugViewsAndDrain(t *testing.T) {
	const query = "pscan emp 4 | exchange producers=4 packet=16"
	var g gate
	g.shut()
	ww := newWorld(t)
	worker, workerTS := newWorkerNode(t, Config{Env: ww.env, Catalog: ww.cat}, stallFragments(&g))
	_, _, coordTS, _ := newTestServer(t, func(c *Config) { c.Dist = newCoordinator(t, workerTS.URL) })

	done := make(chan error, 1)
	var res queryResult
	go func() {
		resp, err := postQueryID(coordTS.URL, "q-parent", query)
		if err == nil {
			res, err = readQueryResult(resp)
		}
		done <- err
	}()
	var listed struct {
		Queries []queryStatus `json:"queries"`
	}
	waitFor(t, 10*time.Second, "four stalled fragments on the worker", func() bool {
		resp, err := http.Get(workerTS.URL + "/debug/queries")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		listed.Queries = nil
		return json.NewDecoder(resp.Body).Decode(&listed) == nil && len(listed.Queries) == empParts
	})
	for _, q := range listed.Queries {
		if q.Kind != "fragment" || q.Fragment == nil || q.Fragment.ParentQueryID != "q-parent" ||
			q.Fragment.Attempt != 1 || q.State != "streaming" {
			t.Errorf("worker lists %+v (fragment %+v), want a streaming fragment of q-parent", q, q.Fragment)
		}
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- worker.Drain(ctx)
	}()
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v with four fragments in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	g.open()
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if err := <-done; err != nil || res.trailer.Status != "ok" || res.rows != empRows || res.trailer.Dist.Retries != 0 {
		t.Fatalf("query under a draining worker: %d rows, %+v, %v; want every row, no retry", res.rows, res.trailer, err)
	}

	// A worker whose catalog lacks a partition fails that build.
	bw := newWorld(t)
	broken, brokenTS := newWorkerNode(t, Config{Env: bw.env, Catalog: missingTable{bw.cat, "emp.3"}}, nil)
	_, _, coordTS2, _ := newTestServer(t, func(c *Config) { c.Dist = newCoordinator(t, brokenTS.URL) })
	resp, err := postQueryID(coordTS2.URL, "q-builderr", query)
	if err != nil {
		t.Fatal(err)
	}
	if failed, err := readQueryResult(resp); err != nil || failed.trailer.Status != "error" || !strings.Contains(failed.trailer.Error, "emp.3") {
		t.Fatalf("query over a broken worker: %+v, %v; want an error naming emp.3", failed.trailer, err)
	}
	var logged *slowLogEntry
	waitFor(t, 5*time.Second, "the failed fragment's slow-log entry", func() bool {
		for _, e := range broken.slow.entries() {
			if e.Kind == "fragment" && e.Outcome == "error" && strings.Contains(e.Error, "emp.3") {
				logged = &e
				return true
			}
		}
		return false
	})
	if logged.Fragment == nil || logged.Fragment.ParentQueryID != "q-builderr" || !strings.Contains(logged.Error, "q-builderr") {
		t.Fatalf("slow-log entry %+v (fragment %+v) does not name the parent query q-builderr", logged, logged.Fragment)
	}
}

// TestFragmentBusyOneWorker ships four fragments to the one node of a
// fleet whose producer budget is one and whose queue holds one. The node
// refuses the excess as busy — a full queue, a queue wait run out — and
// stays in rotation: the coordinator backs off and sends them again, and
// the query completes with a single process's rows.
func TestFragmentBusyOneWorker(t *testing.T) {
	const query = "pscan emp 4 | exchange producers=4 packet=16"
	var g gate
	g.shut()
	ww := newWorld(t)
	worker, workerTS := newWorkerNode(t, Config{Env: ww.env, Catalog: ww.cat,
		MaxProducers: 1, MaxQueue: 1, QueueWait: 50 * time.Millisecond}, stallFragments(&g))
	coord := newCoordinator(t, workerTS.URL)
	_, _, coordTS, _ := newTestServer(t, func(c *Config) { c.Dist = coord })
	_, _, soloTS, _ := newTestServer(t, nil)
	solo, err := postQuery(soloTS, query)
	if err != nil || solo.trailer.Status != "ok" || solo.rows != empRows {
		t.Fatalf("solo run: %d rows, %+v, %v", solo.rows, solo.trailer, err)
	}

	type result struct {
		res queryResult
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := postQuery(coordTS, query)
		done <- result{res, err}
	}()
	// One fragment holds the budget and stalls; the others are refused.
	waitFor(t, 10*time.Second, "the worker refusing fragments as busy", func() bool {
		n := 0
		for _, e := range worker.slow.entries() {
			if e.Kind == "fragment" && e.Outcome == "error" {
				n++
			}
		}
		return n >= 3
	})
	if n := coord.LiveWorkers(); n != 1 {
		t.Fatalf("%d live workers after busy refusals, want the one still live", n)
	}
	g.open()
	got := <-done
	if got.err != nil || got.res.trailer.Status != "ok" {
		t.Fatalf("fleet run: %+v, %v", got.res.trailer, got.err)
	}
	if g, w := strings.Join(bodyRows(got.res), "\n"), strings.Join(bodyRows(solo), "\n"); g != w {
		t.Fatalf("fleet rows differ from the solo run's:\n%s\nwant:\n%s", g, w)
	}
	if d := got.res.trailer.Dist; d == nil || len(d.Fragments) != empParts {
		t.Fatalf("dist block %+v, want %d fragments", d, empParts)
	}
}

// TestFragmentOfOwnQuery: a node that lists itself in its own fleet runs
// its query's fragments without charging them again — the query's weight
// counted the cut's producers — so a query that takes the whole producer
// budget still completes, and no fragment queues or is refused.
func TestFragmentOfOwnQuery(t *testing.T) {
	const query = "pscan emp 4 | exchange producers=4 packet=16"
	coord := newCoordinator(t)
	s, _, ts, _ := newTestServer(t, func(c *Config) {
		c.Dist, c.MaxProducers, c.QueueWait = coord, 4, 50*time.Millisecond
	})
	if err := coord.Register(strings.TrimPrefix(ts.URL, "http://")); err != nil {
		t.Fatal(err)
	}
	_, _, soloTS, _ := newTestServer(t, nil)
	solo, err := postQuery(soloTS, query)
	if err != nil || solo.trailer.Status != "ok" || solo.rows != empRows {
		t.Fatalf("solo run: %d rows, %+v, %v", solo.rows, solo.trailer, err)
	}

	got, err := postQuery(ts, query)
	if err != nil || got.trailer.Status != "ok" {
		t.Fatalf("self-listed run: %+v, %v", got.trailer, err)
	}
	if g, w := strings.Join(bodyRows(got), "\n"), strings.Join(bodyRows(solo), "\n"); g != w {
		t.Fatalf("self-listed rows differ from the solo run's:\n%s\nwant:\n%s", g, w)
	}
	d := got.trailer.Dist
	if d == nil || len(d.Fragments) != empParts || d.Retries != 0 {
		t.Fatalf("dist block %+v, want %d fragments and no retry", d, empParts)
	}
	for _, e := range s.slow.entries() {
		if e.Kind == "fragment" {
			t.Errorf("fragment refused or failed on its own coordinator: %+v", e)
		}
	}
}

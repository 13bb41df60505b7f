package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
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

// distDB is one process's copy of the test data: nums.0..nums.3 with
// rows values dealt round robin, each row padded so the stream is fat
// enough to outrun socket buffering when a test needs that.
type distDB struct {
	env  *core.Env
	cat  plan.MapCatalog
	pool *buffer.Pool
}

// newDistDB builds the fixture deterministically, so the coordinator's
// copy and every worker's copy hold identical tables — the shared-volume
// assumption of the fleet, reproduced per process.
func newDistDB(t testing.TB, rows, pad int) *distDB {
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
	pool := buffer.NewPool(reg, 2048, buffer.TwoLevel)
	vol := file.NewVolume(pool, baseID)
	db := &distDB{
		env:  core.NewEnv(pool, file.NewVolume(pool, tempID)),
		cat:  plan.MapCatalog{},
		pool: pool,
	}
	schema := record.MustSchema(
		record.Field{Name: "v", Type: record.TInt},
		record.Field{Name: "pad", Type: record.TString},
	)
	parts := make([]*file.File, 4)
	for p := range parts {
		f, err := vol.Create(fmt.Sprintf("nums.%d", p), schema)
		if err != nil {
			t.Fatal(err)
		}
		parts[p] = f
		db.cat[fmt.Sprintf("nums.%d", p)] = f
	}
	padding := strings.Repeat("x", pad)
	for i := 0; i < rows; i++ {
		if _, err := parts[i%4].Insert(schema.MustEncode(record.Int(int64(i)), record.Str(padding))); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// fleet is a coordinator plus in-process workers on httptest listeners.
type fleet struct {
	c       *Coordinator
	workers map[string]*Worker          // dispatch addr -> worker
	servers map[string]*httptest.Server // dispatch addr -> its listener

	// delay, when set, holds every /fragment request that many
	// nanoseconds, or until its context ends, before the worker sees it.
	delay atomic.Int64
	// conns counts the connections the workers have accepted.
	conns atomic.Int64

	mu         sync.Mutex
	dispatches []dispatched // every fragment spec a worker was posted
}

// dispatched is one fragment spec as a worker received it, with the
// client address of the connection it arrived on.
type dispatched struct {
	addr   string
	remote string
	spec   FragmentSpec
}

// recording wraps a worker's handler to log each fragment spec it is
// posted before the worker sees it.
func (f *fleet) recording(addr *string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/fragment" {
			// Read the body first: only then does net/http watch the
			// connection, and end the request's context when it drops.
			body, _ := io.ReadAll(r.Body)
			var spec FragmentSpec
			if json.Unmarshal(body, &spec) == nil {
				f.mu.Lock()
				f.dispatches = append(f.dispatches, dispatched{addr: *addr, remote: r.RemoteAddr, spec: spec})
				f.mu.Unlock()
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			stall := time.NewTimer(time.Duration(f.delay.Load()))
			defer stall.Stop()
			select {
			case <-stall.C:
			case <-r.Context().Done():
				return
			}
		}
		h.ServeHTTP(rw, r)
	})
}

// serveFragments is a worker node's HTTP surface as far as the dist
// package knows it: POST /fragment checked and streamed with no
// admission in between, and a /healthz that always answers.
func serveFragments(w *Worker) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /fragment", func(rw http.ResponseWriter, r *http.Request) {
		if f := w.Accept(rw, r); f != nil {
			_ = w.Run(rw, r, f, plan.BuildOptions{})
		}
	})
	mux.HandleFunc("/healthz", func(rw http.ResponseWriter, r *http.Request) { fmt.Fprintln(rw, "ok") })
	return mux
}

func newFleet(t testing.TB, rows, pad, workers int, mutate func(i int, cfg *WorkerConfig)) *fleet {
	t.Helper()
	quiet := log.New(io.Discard, "", 0)
	c := NewCoordinator(CoordinatorConfig{
		HeartbeatEvery: 100 * time.Millisecond,
		Log:            quiet,
	})
	t.Cleanup(c.Close)
	f := &fleet{c: c, workers: map[string]*Worker{}, servers: map[string]*httptest.Server{}}
	for i := 0; i < workers; i++ {
		db := newDistDB(t, rows, pad)
		cfg := WorkerConfig{Env: db.env, Catalog: db.cat}
		if mutate != nil {
			mutate(i, &cfg)
		}
		w := NewWorker(cfg)
		var addr string
		srv := httptest.NewUnstartedServer(f.recording(&addr, serveFragments(w)))
		srv.Config.ConnContext = ConnContext
		srv.Config.ConnState = func(_ net.Conn, state http.ConnState) {
			if state == http.StateNew {
				f.conns.Add(1)
			}
		}
		srv.Start()
		t.Cleanup(srv.Close)
		addr = strings.TrimPrefix(srv.URL, "http://")
		if err := c.Register(addr); err != nil {
			t.Fatal(err)
		}
		f.workers[addr] = w
		f.servers[addr] = srv
	}
	return f
}

// kill does to a worker what a process kill does: every connection is
// cut before its fragment's EOS, and the listener is gone, so heartbeats
// fail too. It returns once the worker's fragments have unwound.
func (f *fleet) kill(addr string) {
	srv := f.servers[addr]
	srv.CloseClientConnections()
	srv.Close()
}

const distScript = "pscan nums 4 | exchange producers=4 packet=16"

// bind compiles the script and returns the iterator built with the
// coordinator's binder installed, plus the summary it fills. The tree is
// built as written: no cost pass runs.
func bind(t testing.TB, c *Coordinator, db *distDB, queryID, script string) (core.Iterator, *Summary) {
	t.Helper()
	return bindBatch(t, c, db, queryID, script, 0)
}

// bindBatch is bind with the plan, and every fragment shipped from it,
// built at the given batch size (0 = core.DefaultBatchSize).
func bindBatch(t testing.TB, c *Coordinator, db *distDB, queryID, script string, batch int) (core.Iterator, *Summary) {
	t.Helper()
	tpl, err := plan.Compile(script)
	if err != nil {
		t.Fatal(err)
	}
	sum := &Summary{}
	it, _, err := plan.BuildWith(db.env, db.cat, tpl.Root(), plan.BuildOptions{
		BatchSize: batch,
		Remote: c.Binder(BindRequest{
			QueryID:   queryID,
			Env:       db.env,
			Summary:   sum,
			BatchSize: batch,
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	return it, sum
}

func renderSorted(rows [][]record.Value) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = v.String()
		}
		out[i] = strings.Join(cells, "\x1f")
	}
	sort.Strings(out)
	return out
}

// TestDistTwoWorkersEndToEnd runs a partitioned plan with its producer
// fragments spread over two worker processes' iterators and real TCP,
// and checks the result set matches single-process execution exactly.
func TestDistTwoWorkersEndToEnd(t *testing.T) {
	const rows = 2000
	f := newFleet(t, rows, 8, 2, nil)
	db := newDistDB(t, rows, 8)

	n, err := plan.Parse(distScript)
	if err != nil {
		t.Fatal(err)
	}
	local, _, err := plan.BuildWith(db.env, db.cat, n, plan.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	localRows, err := core.Collect(local, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := renderSorted(localRows)

	// Built as the query service builds: analyzed, with one meter billed
	// for the wire on the coordinator.
	tpl, err := plan.Compile(distScript)
	if err != nil {
		t.Fatal(err)
	}
	m := &core.ResourceMeter{}
	sum := &Summary{}
	it, an, err := plan.BuildWith(db.env, db.cat, tpl.Root(), plan.BuildOptions{
		Analyze: true,
		Meter:   m,
		Remote:  f.c.Binder(BindRequest{QueryID: "q-e2e", Env: db.env, Meter: m, Summary: sum}),
	})
	if err != nil {
		t.Fatal(err)
	}
	gotRows, err := core.Collect(it, 0)
	if err != nil {
		t.Fatalf("distributed run: %v", err)
	}
	got := renderSorted(gotRows)
	if len(got) != len(want) {
		t.Fatalf("distributed run returned %d rows, local %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d differs:\n got %q\nwant %q", i, got[i], want[i])
		}
	}

	frags := sum.Fragments()
	if len(frags) != 4 {
		t.Fatalf("expected 4 fragments, summary has %d", len(frags))
	}
	seen := map[string]bool{}
	var fragWire int64
	for _, fr := range frags {
		fragWire += fr.WireBytes
		if fr.State != "done" {
			t.Errorf("fragment %s/%d state %q, want done", fr.Path, fr.Producer, fr.State)
		}
		if fr.Attempts != 1 {
			t.Errorf("fragment %s/%d took %d attempts, want 1", fr.Path, fr.Producer, fr.Attempts)
		}
		if fr.Records != rows/4 {
			t.Errorf("fragment %s/%d delivered %d records, want %d", fr.Path, fr.Producer, fr.Records, rows/4)
		}
		if fr.WireBytes <= 0 {
			t.Errorf("fragment %s/%d reports no wire bytes", fr.Path, fr.Producer)
		}
		seen[fr.Worker] = true
	}
	if len(seen) != 2 {
		t.Errorf("fragments ran on %d distinct workers, want 2 (%v)", len(seen), seen)
	}
	// One count per frame: the query's bill (the trailer's
	// resources.wire_bytes and dist.wire_recv_bytes) is the fragments' sum.
	if res := an.Resources(); res.WireBytes <= 0 || res.WireBytes != fragWire {
		t.Errorf("resources.wire_bytes = %d, fragments' wire_bytes sum to %d", res.WireBytes, fragWire)
	}
	if sum.Retries.Load() != 0 {
		t.Errorf("summary counted %d retries on a healthy run", sum.Retries.Load())
	}
	if pinned := db.pool.PinnedFrames(); pinned != 0 {
		t.Fatalf("%d frames still pinned", pinned)
	}
}

// TestDistBatchedFragments ships fragments that the worker drains in
// batches. Each record's pin must be released exactly once: the rows at
// batch sizes 7 and 64 equal those at batch size 1, every
// fragment finishes on its first attempt on the one worker (a double
// unfix would panic it), and no pin outlives the query on either side.
func TestDistBatchedFragments(t *testing.T) {
	const rows = 2000
	f := newFleet(t, rows, 8, 1, nil)
	db := newDistDB(t, rows, 8)
	const script = "pscan nums 4 | filter v > 300 | exchange producers=4 packet=83"

	var want []string
	for _, batch := range []int{1, 7, 64} {
		it, sum := bindBatch(t, f.c, db, fmt.Sprintf("q-batch-%d", batch), script, batch)
		got, err := core.Collect(it, 0)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		if batch == 1 {
			want = renderSorted(got)
			if len(want) != rows-301 {
				t.Fatalf("batch 1 returned %d rows, want %d", len(want), rows-301)
			}
		} else if g := renderSorted(got); strings.Join(g, "\n") != strings.Join(want, "\n") {
			t.Fatalf("batch %d returned %d rows that differ from batch 1's %d", batch, len(g), len(want))
		}
		for _, fr := range sum.Fragments() {
			if fr.State != "done" || fr.Attempts != 1 {
				t.Errorf("batch %d: fragment %s/%d state %q after %d attempts", batch, fr.Path, fr.Producer, fr.State, fr.Attempts)
			}
		}
		if pinned := db.pool.PinnedFrames(); pinned != 0 {
			t.Fatalf("batch %d: %d frames still pinned on the coordinator", batch, pinned)
		}
		for addr, w := range f.workers {
			if st := w.cfg.Env.Pool.Stats(); st.CurrentlyFixedHint != 0 {
				t.Fatalf("batch %d: worker %s holds %d pins after the query", batch, addr, st.CurrentlyFixedHint)
			}
		}
	}
	if live := f.c.LiveWorkers(); live != 1 {
		t.Fatalf("%d live workers after the batched queries, want 1", live)
	}
}

// TestDistWorkerLossRetry kills one worker while its fragments are
// mid-stream and checks the coordinator re-dispatches them to the
// survivor with an exact skip: the query completes with every value
// delivered exactly once. It runs record-at-a-time and at the served
// batch size; the workers drain their fragments and the coordinator
// pulls the root at that size.
func TestDistWorkerLossRetry(t *testing.T) {
	for _, batch := range []int{1, core.DefaultBatchSize} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) { testWorkerLossRetry(t, batch) })
	}
	t.Run("agg/batch=1", testWorkerLossAggRetry)
}

func testWorkerLossRetry(t *testing.T, batch int) {
	// Fat rows, far beyond socket buffering: the victim's fragments
	// cannot finish before the kill.
	const rows = 40000
	f := newFleet(t, rows, 400, 2, nil)
	db := newDistDB(t, rows, 400)

	it, sum := bindBatch(t, f.c, db, "q-loss", distScript, batch)
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	schema := it.Schema()
	counts := map[string]int{}
	// pull hands out the next batch of records; an empty one is the end
	// of the stream.
	b := core.NewBatch(batch)
	pull := func() ([]core.Rec, error) {
		err := it.NextBatch(b)
		return b.Recs(), err
	}
	drain := func(limit int) error {
		for n := 0; limit <= 0 || n < limit; {
			run, err := pull()
			if err != nil || len(run) == 0 {
				return err
			}
			for _, r := range run {
				vals, err := schema.Decode(r.Data)
				if err != nil {
					file.UnfixBatch(run)
					return err
				}
				counts[vals[0].String()]++
			}
			file.UnfixBatch(run)
			n += len(run)
		}
		return nil
	}
	if err := drain(500); err != nil {
		t.Fatalf("initial drain: %v", err)
	}

	// Kill a worker that still has a fragment running.
	victim := ""
	for _, fr := range sum.Fragments() {
		if fr.State == "running" && fr.Worker != "" {
			victim = fr.Worker
			break
		}
	}
	if victim == "" {
		t.Fatal("no running fragment to kill — fixture too small to outlast the initial drain")
	}
	f.kill(victim)

	if err := drain(0); err != nil {
		t.Fatalf("drain after worker loss: %v", err)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}

	if len(counts) != rows {
		t.Fatalf("saw %d distinct values, want %d", len(counts), rows)
	}
	for v, n := range counts {
		if n != 1 {
			t.Fatalf("value %s delivered %d times", v, n)
		}
	}
	if sum.Retries.Load() == 0 {
		t.Error("no retries recorded despite worker kill")
	}
	retried := false
	for _, fr := range sum.Fragments() {
		if fr.State != "done" {
			t.Errorf("fragment %s/%d ended in state %q", fr.Path, fr.Producer, fr.State)
		}
		if fr.Attempts > 1 {
			retried = true
			if fr.Worker == victim {
				t.Errorf("retried fragment %s/%d still attributed to dead worker %s", fr.Path, fr.Producer, victim)
			}
		}
	}
	if !retried {
		t.Error("no fragment shows more than one attempt")
	}
	if pinned := db.pool.PinnedFrames(); pinned != 0 {
		t.Fatalf("%d frames still pinned", pinned)
	}
	for addr, w := range f.workers {
		if st := w.cfg.Env.Pool.Stats(); addr != victim && st.CurrentlyFixedHint != 0 {
			t.Fatalf("surviving worker %s holds %d pins after the query", addr, st.CurrentlyFixedHint)
		}
	}
}

// groupWatch counts every record the producers of a cut hand its hub,
// by first field, and runs onFirst once the first one has arrived. Each
// producer's iterator is wrapped on its own goroutine, so the shared
// state is under a mutex.
type groupWatch struct {
	mu      sync.Mutex
	seen    map[int64]int
	onFirst func()
}

// wrap returns producer it, watched.
func (g *groupWatch) wrap(it core.Iterator) core.Iterator { return &watched{Iterator: it, g: g} }

type watched struct {
	core.Iterator
	g *groupWatch
}

func (w *watched) NextBatch(b *core.Batch) error {
	if err := w.Iterator.NextBatch(b); err != nil {
		return err
	}
	g := w.g
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, r := range b.Recs() {
		vals, err := w.Schema().Decode(r.Data)
		if err != nil {
			return err
		}
		g.seen[vals[0].I]++
	}
	if b.Len() > 0 && g.onFirst != nil {
		g.onFirst()
		g.onFirst = nil
	}
	return nil
}

// testWorkerLossAggRetry is worker loss on a partial-aggregate fragment.
// The costed plan splits the aggregate across the cut, so each fragment
// ends in a hash aggregate and ships groups. Once the coordinator has
// received a first group, the worker streaming it is killed: the
// survivor must resume that fragment with Skip > 0 — a hash aggregate
// re-emits its groups in first-seen order — every group must reach the
// combiner exactly once, and the combined answer must be the local
// run's.
func testWorkerLossAggRetry(t *testing.T) {
	const batch = 1
	// One group per row, each carrying the 400-byte pad: a fragment's
	// groups far outrun socket buffering, so the victim is still
	// streaming when it dies.
	const rows = 40000
	const script = "pscan nums 4 | exchange producers=4 packet=16 flow=on | agg group v, pad compute count, sum(v), max(v)"
	f := newFleet(t, rows, 400, 2, nil)
	db := newDistDB(t, rows, 400)

	tpl, err := plan.Compile(script)
	if err != nil {
		t.Fatal(err)
	}
	costed := tpl.Cost(db.cat, nil).Template.Root()
	if x := costed.Inputs[0]; !costed.Combine || x.Inputs[0].Kind != plan.KindAggregate {
		t.Fatalf("costed plan does not ship a partial aggregate:\n%s", plan.Explain(costed))
	}
	sum := &Summary{}
	watch := &groupWatch{seen: map[int64]int{}}
	victim := ""
	watch.onFirst = func() {
		for _, fr := range sum.Fragments() {
			if fr.State == "running" && fr.Records > 0 && fr.Worker != "" {
				victim = fr.Worker
				f.kill(victim)
				return
			}
		}
	}
	binder := f.c.Binder(BindRequest{QueryID: "q-agg-loss", Env: db.env, Summary: sum, BatchSize: batch})
	it, _, err := plan.BuildWith(db.env, db.cat, costed, plan.BuildOptions{
		BatchSize: batch,
		Remote: func(path string, n *plan.Node, schema *record.Schema) (func(int) (core.Iterator, error), func(), error) {
			producer, stop, err := binder(path, n, schema)
			if producer == nil || err != nil {
				return producer, stop, err
			}
			return func(g int) (core.Iterator, error) {
				it, err := producer(g)
				if err != nil {
					return nil, err
				}
				return watch.wrap(it), nil
			}, stop, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Collect(it, batch)
	if err != nil {
		t.Fatalf("distributed run: %v", err)
	}
	if victim == "" {
		t.Fatal("no fragment was streaming when the first group arrived")
	}

	if len(watch.seen) != rows {
		t.Fatalf("the combiner saw %d distinct groups, want %d", len(watch.seen), rows)
	}
	for v, n := range watch.seen {
		if n != 1 {
			t.Fatalf("group %d delivered %d times", v, n)
		}
	}
	resumed := false
	f.mu.Lock()
	for _, d := range f.dispatches {
		if d.spec.QueryID == "q-agg-loss" && d.spec.Attempt > 1 && d.spec.Skip > 0 {
			resumed = true
			if d.addr == victim {
				t.Errorf("fragment %s/%d resumed on the dead worker", d.spec.Path, d.spec.Producer)
			}
		}
	}
	f.mu.Unlock()
	if !resumed {
		t.Error("no fragment was resumed with Skip > 0")
	}

	localIt, _, err := plan.BuildWith(db.env, db.cat, tpl.Root(), plan.BuildOptions{BatchSize: batch})
	if err != nil {
		t.Fatal(err)
	}
	local, err := core.Collect(localIt, batch)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := renderSorted(got), renderSorted(local); strings.Join(g, "\n") != strings.Join(w, "\n") {
		t.Fatalf("combined answer (%d rows) differs from the local run (%d rows)", len(g), len(w))
	}
	if pinned := db.pool.PinnedFrames(); pinned != 0 {
		t.Fatalf("%d frames still pinned", pinned)
	}
	for addr, w := range f.workers {
		if st := w.cfg.Env.Pool.Stats(); addr != victim && st.CurrentlyFixedHint != 0 {
			t.Fatalf("surviving worker %s holds %d pins after the query", addr, st.CurrentlyFixedHint)
		}
	}
}

// TestDistEarlyCloseReleasesFleet closes a distributed query after its
// first batch, with every fragment still streaming. Close must cut the
// streams promptly, and nothing may outlive the query: no active
// fragment on a worker, no pin in any pool, no goroutine.
func TestDistEarlyCloseReleasesFleet(t *testing.T) {
	// Fat rows: a megabyte per fragment, far beyond socket buffering,
	// so no fragment can finish before the close.
	const rows = 10000
	regs := make([]*metrics.Registry, 2)
	f := newFleet(t, rows, 400, 2, func(i int, cfg *WorkerConfig) {
		regs[i] = metrics.NewRegistry()
		cfg.Metrics = regs[i]
	})
	db := newDistDB(t, rows, 400)

	// Warm up: a query that ships no rows leaves each worker's dispatch
	// connections and heartbeat connection open, so the baseline holds
	// them and the query under test opens none.
	warm, _ := bind(t, f.c, db, "q-warm", "pscan nums 4 | filter v < 0 | exchange producers=4 packet=16")
	if got, err := core.Collect(warm, 0); err != nil || len(got) != 0 {
		t.Fatalf("warm-up: %d rows, %v", len(got), err)
	}
	time.Sleep(300 * time.Millisecond) // past the first heartbeats
	baseline := runtime.NumGoroutine()

	it, sum := bind(t, f.c, db, "q-early-close", distScript)
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	b := core.NewBatch(0)
	if err := it.NextBatch(b); err != nil || b.Len() == 0 {
		t.Fatalf("first batch: %d records, %v", b.Len(), err)
	}
	b.Release()
	for _, fr := range sum.Fragments() {
		if fr.State != "running" {
			t.Fatalf("fragment %s/%d is %q before the close; the fixture must outlast one batch", fr.Path, fr.Producer, fr.State)
		}
	}
	start := time.Now()
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Close took %v", d)
	}
	if pinned := db.pool.PinnedFrames(); pinned != 0 {
		t.Fatalf("%d frames still pinned on the coordinator", pinned)
	}

	// The workers unwind on their own goroutines: poll.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var busy []string
		for addr, w := range f.workers {
			if n := w.m.active.Value(); n != 0 {
				busy = append(busy, fmt.Sprintf("worker %s has %d active fragments", addr, n))
			}
			if n := w.cfg.Env.Pool.Stats().CurrentlyFixedHint; n != 0 {
				busy = append(busy, fmt.Sprintf("worker %s holds %d pins", addr, n))
			}
		}
		if n := runtime.NumGoroutine(); n > baseline {
			busy = append(busy, fmt.Sprintf("%d goroutines, baseline %d", n, baseline))
		}
		if len(busy) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after Close: %s", strings.Join(busy, "; "))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDistDispatchReusesConnections runs the same query five times in a
// row. Each fragment's stream is its dispatch response, and reading it
// to the end returns the connection to the coordinator's pool, so once a
// first query has filled the pool the next four open no connection at
// all. The first query's dispatches are held until all of them are in
// flight, so it opens as many connections to each worker as a query can
// use at once; net/http pools a dial that lost its request to an
// earlier connection only when the dial completes, so the count is
// taken once the pool has settled.
func TestDistDispatchReusesConnections(t *testing.T) {
	const rows = 2000
	f := newFleet(t, rows, 8, 2, nil)
	db := newDistDB(t, rows, 8)
	run := func(q int) {
		it, _ := bind(t, f.c, db, fmt.Sprintf("q-reuse-%d", q), distScript)
		got, err := core.Collect(it, 0)
		if err != nil || len(got) != rows {
			t.Fatalf("query %d: %d rows, %v", q, len(got), err)
		}
	}
	f.delay.Store(int64(100 * time.Millisecond))
	run(0)
	f.delay.Store(0)
	time.Sleep(300 * time.Millisecond) // past the first heartbeats and any late dial
	before := f.conns.Load()
	for q := 1; q < 5; q++ {
		run(q)
	}
	if n := f.conns.Load() - before; n != 0 {
		t.Fatalf("four queries after a warm-up opened %d new connections, want 0", n)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.dispatches) != 20 {
		t.Fatalf("%d dispatches arrived, want 20", len(f.dispatches))
	}
}

// TestDistCloseCutsStalledFragment stalls every dispatch on the worker
// for 5 s, under the coordinator's wait for a response header. Neither
// way a query can end early may wait that out: closing it stops its
// cuts, and canceling its context fails it with core.ErrCanceled, each
// within a second, and nothing outlives it — no goroutine, no pinned
// frame.
func TestDistCloseCutsStalledFragment(t *testing.T) {
	const rows = 400
	f := newFleet(t, rows, 8, 1, nil)
	f.delay.Store(int64(5 * time.Second))
	db := newDistDB(t, rows, 8)
	tpl, err := plan.Compile(distScript)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond) // past the first heartbeats
	baseline := runtime.NumGoroutine()
	build := func(ctx context.Context, queryID string) core.Iterator {
		it, _, err := plan.BuildWith(db.env, db.cat, tpl.Root(), plan.BuildOptions{
			Remote: f.c.Binder(BindRequest{QueryID: queryID, Env: db.env, Ctx: ctx}),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := it.Open(); err != nil {
			t.Fatal(err)
		}
		return it
	}
	settled := func(what string) {
		t.Helper()
		if pinned := db.pool.PinnedFrames(); pinned != 0 {
			t.Fatalf("%s: %d frames still pinned", what, pinned)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > baseline {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, baseline %d", what, runtime.NumGoroutine(), baseline)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	it := build(context.Background(), "q-stall-close")
	time.Sleep(50 * time.Millisecond) // the dispatches are out
	start := time.Now()
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Close waited %v on stalled fragments", d)
	}
	settled("close")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	it = build(ctx, "q-stall-cancel")
	time.AfterFunc(50*time.Millisecond, cancel)
	start = time.Now()
	b := core.NewBatch(0)
	err = it.NextBatch(b)
	if d := time.Since(start); !errors.Is(err, core.ErrCanceled) || d > time.Second {
		t.Fatalf("NextBatch of a canceled query returned %d records, %v, after %v; want core.ErrCanceled within 1s", b.Len(), err, d)
	}
	if err := it.Close(); err != nil && !errors.Is(err, core.ErrCanceled) {
		t.Fatal(err)
	}
	settled("cancel")
}

// TestDistWireWaitIsNotCPU delays every dispatch on the workers. The
// coordinator spends that time blocked on the wire, and its analyzed
// CPU must not count it.
func TestDistWireWaitIsNotCPU(t *testing.T) {
	const rows = 400
	f := newFleet(t, rows, 8, 1, nil)
	f.delay.Store(int64(50 * time.Millisecond))
	db := newDistDB(t, rows, 8)
	tpl, err := plan.Compile(distScript)
	if err != nil {
		t.Fatal(err)
	}
	it, an, err := plan.BuildWith(db.env, db.cat, tpl.Root(), plan.BuildOptions{
		Analyze: true,
		Remote:  f.c.Binder(BindRequest{QueryID: "q-wait", Env: db.env}),
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	got, err := core.Collect(it, 0)
	if err != nil || len(got) != rows {
		t.Fatalf("%d rows, %v", len(got), err)
	}
	elapsed := time.Since(start)
	if cpu := time.Duration(an.CPUNanos()); cpu >= 10*time.Millisecond {
		t.Fatalf("coordinator CPU %v over a %v run that mostly waited on the wire:\n%s", cpu, elapsed, an)
	}
}

// TestDistNoWorkersLocalFallback: with an empty fleet the binder
// declines and the plan builds its exchanges locally.
func TestDistNoWorkersLocalFallback(t *testing.T) {
	const rows = 1000
	f := newFleet(t, rows, 8, 0, nil)
	db := newDistDB(t, rows, 8)

	it, sum := bind(t, f.c, db, "q-local", distScript)
	gotRows, err := core.Collect(it, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotRows) != rows {
		t.Fatalf("local fallback returned %d rows, want %d", len(gotRows), rows)
	}
	if frags := sum.Fragments(); len(frags) != 0 {
		t.Fatalf("local fallback still registered %d fragments", len(frags))
	}
}

// TestDistCatalogVersionMismatch: a worker planned against a different
// catalog epoch rejects the dispatch, and the rejection is a permanent
// query error, not a retry loop.
func TestDistCatalogVersionMismatch(t *testing.T) {
	const rows = 400
	f := newFleet(t, rows, 8, 1, func(i int, cfg *WorkerConfig) {
		cfg.CatalogVersion = "epoch-2"
	})
	db := newDistDB(t, rows, 8)

	tpl, err := plan.Compile(distScript)
	if err != nil {
		t.Fatal(err)
	}
	sum := &Summary{}
	it, _, err := plan.BuildWith(db.env, db.cat, tpl.Root(), plan.BuildOptions{
		Remote: f.c.Binder(BindRequest{
			QueryID:        "q-epoch",
			CatalogVersion: "epoch-1",
			Env:            db.env,
			Summary:        sum,
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = core.Collect(it, 0)
	if err == nil {
		t.Fatal("expected catalog mismatch to fail the query")
	}
	if !strings.Contains(err.Error(), "catalog version mismatch") {
		t.Fatalf("error %q does not mention the catalog mismatch", err)
	}
	if sum.Retries.Load() != 0 {
		t.Errorf("deterministic rejection was retried %d times", sum.Retries.Load())
	}
}

// TestDistRemoteBuildError: a fragment that cannot build on the worker
// (missing table partition) reports its error back over the wire as an
// error-EOS, failing the query permanently with the root cause intact.
func TestDistRemoteBuildError(t *testing.T) {
	const rows = 400
	f := newFleet(t, rows, 8, 1, func(i int, cfg *WorkerConfig) {
		cat := cfg.Catalog.(plan.MapCatalog)
		delete(cat, "nums.3")
	})
	db := newDistDB(t, rows, 8)

	it, _ := bind(t, f.c, db, "q-builderr", distScript)
	_, err := core.Collect(it, 0)
	if err == nil {
		t.Fatal("expected remote build failure to fail the query")
	}
	if !strings.Contains(err.Error(), "nums.3") {
		t.Fatalf("error %q does not carry the remote cause", err)
	}
}

// TestWorkerRefusesBatchSizeOutOfRange posts fragment specs whose batch
// size is outside 1..core.MaxBatchSize: the worker answers 400 before it
// builds or streams anything, naming 1 as the record-at-a-time size.
func TestWorkerRefusesBatchSizeOutOfRange(t *testing.T) {
	db := newDistDB(t, 10, 8)
	w := NewWorker(WorkerConfig{Env: db.env, Catalog: db.cat})
	for _, size := range []int{0, -1, core.MaxBatchSize + 1, 1 << 62} {
		body, err := json.Marshal(FragmentSpec{
			QueryID: "q-bad-batch", Fragment: fragmentOf(t, distScript), Path: "", Producer: 0, Attempt: 1,
			BatchSize: size,
		})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		serveFragments(w).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/fragment", bytes.NewReader(body)))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "1 is record-at-a-time") {
			t.Errorf("batch size %d: status %d, body %q; want 400 naming the record-at-a-time size", size, rec.Code, rec.Body.String())
		}
	}
}

// fragmentOf is the JSON a coordinator ships for a script whose root is
// the exchange cut.
func fragmentOf(t testing.TB, script string) json.RawMessage {
	t.Helper()
	n, err := plan.Parse(script)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(n)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestWorkerRefusesBadFragment posts fragment specs no parser would have
// let through. A shipped node skips the parser, so the worker checks it
// before accepting: each spec gets a 400 and counts as rejected, and
// none is built or streamed.
func TestWorkerRefusesBadFragment(t *testing.T) {
	db := newDistDB(t, 10, 8)
	reg := metrics.NewRegistry()
	w := NewWorker(WorkerConfig{Env: db.env, Catalog: db.cat, Metrics: reg})
	// edit parses the exchange-over-pscan script and changes its tree.
	edit := func(change func(x *plan.Node)) json.RawMessage {
		x, err := plan.Parse(distScript)
		if err != nil {
			t.Fatal(err)
		}
		change(x)
		data, err := json.Marshal(x)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	specAt := func(fragment json.RawMessage, producer int, skip int64) []byte {
		body, err := json.Marshal(FragmentSpec{
			QueryID: "q-bad-fragment", Fragment: fragment, Producer: producer, Attempt: 1,
			Skip: skip, BatchSize: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	spec := func(fragment json.RawMessage) []byte { return specAt(fragment, 0, 0) }
	for _, tc := range []struct {
		name string
		body []byte
		want string
	}{
		{"producers=0", spec(edit(func(x *plan.Node) { x.X.Producers = 0 })), "producers out of range 1..1024"},
		{"producers>MaxDOP", spec(edit(func(x *plan.Node) { x.X.Producers = plan.MaxDOP + 1 })), "producers out of range 1..1024"},
		{"nested producers>MaxDOP", spec(edit(func(x *plan.Node) {
			x.Inputs = []*plan.Node{{Kind: plan.KindExchange, X: &plan.XOpts{Producers: plan.MaxDOP + 1}, Inputs: x.Inputs}}
		})), "producers out of range 1..1024"},
		{"pscan partitions>MaxDOP", spec(edit(func(x *plan.Node) { x.Inputs[0].Partitions = plan.MaxDOP + 1 })), "pscan partition count 1025 out of range"},
		{"top is not an exchange", spec(edit(func(x *plan.Node) { *x = *x.Inputs[0] })), "not an exchange"},
		{"exchange with two inputs", spec(edit(func(x *plan.Node) { x.Inputs = append(x.Inputs, x.Inputs[0]) })), "exchange with 2 inputs"},
		{"exchange with no input", spec(edit(func(x *plan.Node) { x.Inputs = nil })), "exchange with 0 inputs"},
		{"filter with no input", spec(edit(func(x *plan.Node) {
			x.Inputs = []*plan.Node{{Kind: plan.KindFilter, Pred: "v > 1"}}
		})), "filter with 0 inputs"},
		{"missing node", spec(edit(func(x *plan.Node) { x.Inputs = []*plan.Node{nil} })), "missing node"},
		{"no fragment", spec(nil), "not an exchange"},
		{"producer beyond the cut's producers", specAt(fragmentOf(t, distScript), 4, 0), "producer 4 of 4"},
		{"negative producer", specAt(fragmentOf(t, distScript), -1, 0), "producer -1 of 4"},
		{"negative skip", specAt(fragmentOf(t, distScript), 0, -1), "negative skip"},
		{"unknown node field", spec(json.RawMessage(strings.Replace(string(fragmentOf(t, distScript)), "{", `{"Bogus":1,`, 1))), `unknown field "Bogus"`},
		{"unknown spec field", []byte(`{"query_id":"q","plan":"pscan nums 4 | exchange producers=4","producer":0,"attempt":1,"batch_size":1}`), `unknown field "plan"`},
	} {
		before := w.m.rejected.Value()
		rec := httptest.NewRecorder()
		serveFragments(w).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/fragment", bytes.NewReader(tc.body)))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), tc.want) {
			t.Errorf("%s: status %d, body %q; want 400 naming %q", tc.name, rec.Code, rec.Body.String(), tc.want)
		}
		if got := w.m.rejected.Value() - before; got != 1 {
			t.Errorf("%s: rejected rose by %d, want 1", tc.name, got)
		}
	}
}

// TestDistCorruptFrameFailsOnce has a stand-in worker answer every
// dispatch with a data frame whose second record the cut's schema rejects
// (Schema.Check). That is a data error, not worker loss: the query fails
// naming the fragment, producer and worker, no fragment is dispatched a
// second time, and no pin is left.
func TestDistCorruptFrameFailsOnce(t *testing.T) {
	db := newDistDB(t, 8, 8)
	schema := record.MustSchema(record.Field{Name: "v", Type: record.TInt}, record.Field{Name: "pad", Type: record.TString})
	good := schema.MustEncode(record.Int(1), record.Str("xx"))
	var dispatches atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		dispatches.Add(1)
		_, _ = io.Copy(io.Discard, r.Body)
		_, _ = rw.Write(core.AppendWireFrame(nil, [][]byte{good, good[:len(good)-1]}, 0))
		_, _ = rw.Write(core.AppendWireFrame(nil, nil, core.WireFlagEOS))
	}))
	t.Cleanup(srv.Close)
	// An hour between heartbeats: the stand-in answers no health probe.
	c := NewCoordinator(CoordinatorConfig{HeartbeatEvery: time.Hour, Log: log.New(io.Discard, "", 0)})
	t.Cleanup(c.Close)
	addr := strings.TrimPrefix(srv.URL, "http://")
	if err := c.Register(addr); err != nil {
		t.Fatal(err)
	}

	it, sum := bind(t, c, db, "q-corrupt", distScript)
	_, err := core.Collect(it, 0)
	if err == nil || !strings.Contains(err.Error(), "corrupt var-length bounds") || !strings.Contains(err.Error(), " on "+addr) ||
		!strings.Contains(err.Error(), "dist: fragment ") || !strings.Contains(err.Error(), " producer ") {
		t.Fatalf("error %v, want the record's corrupt bounds, naming the fragment, producer and worker %s", err, addr)
	}
	failed := 0
	for _, fr := range sum.Fragments() {
		if fr.Attempts > 1 {
			t.Errorf("fragment %s/%d dispatched %d times", fr.Path, fr.Producer, fr.Attempts)
		}
		if fr.State == "failed" && fr.Attempts == 1 {
			failed++
		}
	}
	if failed == 0 || sum.Retries.Load() != 0 || dispatches.Load() > int64(len(sum.Fragments())) {
		t.Fatalf("%d fragments failed on their first attempt, %d retries, %d dispatches; want at least one, none, at most one per fragment",
			failed, sum.Retries.Load(), dispatches.Load())
	}
	if pinned := db.pool.PinnedFrames(); pinned != 0 {
		t.Fatalf("%d frames still pinned", pinned)
	}
}

package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
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
	workers map[string]*Worker // dispatch addr -> worker
}

func newFleet(t testing.TB, rows, pad, workers int, mutate func(i int, cfg *WorkerConfig)) *fleet {
	t.Helper()
	quiet := log.New(io.Discard, "", 0)
	c, err := NewCoordinator(CoordinatorConfig{
		HeartbeatEvery: 100 * time.Millisecond,
		ConnWait:       5 * time.Second,
		Log:            quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	f := &fleet{c: c, workers: map[string]*Worker{}}
	for i := 0; i < workers; i++ {
		db := newDistDB(t, rows, pad)
		cfg := WorkerConfig{Env: db.env, Catalog: db.cat, Log: quiet}
		if mutate != nil {
			mutate(i, &cfg)
		}
		w, err := NewWorker(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(w.Handler())
		t.Cleanup(srv.Close)
		t.Cleanup(w.Stop)
		addr := strings.TrimPrefix(srv.URL, "http://")
		if err := c.Register(addr); err != nil {
			t.Fatal(err)
		}
		f.workers[addr] = w
	}
	return f
}

const distScript = "pscan nums 4 | exchange producers=4 packet=16"

// bind compiles the script and returns the iterator built with the
// coordinator's binder installed, plus the summary it fills.
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
			Source:    tpl.Source(),
			Root:      tpl.Root(),
			Env:       db.env,
			Cat:       db.cat,
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

	it, sum := bind(t, f.c, db, "q-e2e", distScript)
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
	for _, fr := range frags {
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
	if sum.WireRecv.Load() <= 0 {
		t.Error("summary counted no wire bytes")
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
	f.workers[victim].Stop()

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
			Source:         tpl.Source(),
			Root:           tpl.Root(),
			CatalogVersion: "epoch-1",
			Env:            db.env,
			Cat:            db.cat,
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
// compiles or dials anything, naming 1 as the record-at-a-time size.
func TestWorkerRefusesBatchSizeOutOfRange(t *testing.T) {
	db := newDistDB(t, 10, 8)
	w, err := NewWorker(WorkerConfig{Env: db.env, Catalog: db.cat, Log: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	for _, size := range []int{0, -1, core.MaxBatchSize + 1, 1 << 62} {
		body, err := json.Marshal(FragmentSpec{
			QueryID: "q-bad-batch", Plan: distScript, Path: "", Producer: 0, Attempt: 1,
			BatchSize: size, Endpoint: "127.0.0.1:1",
		})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		w.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/fragment", bytes.NewReader(body)))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "1 is record-at-a-time") {
			t.Errorf("batch size %d: status %d, body %q; want 400 naming the record-at-a-time size", size, rec.Code, rec.Body.String())
		}
	}
}

package server

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/plan"
	"repro/internal/record"
)

// newFleetCoordinator starts n in-process worker nodes, each a Server
// over its own copy of the test database (mkWorld builds one) and at the
// given catalog version, and returns a coordinator with all of them
// registered.
func newFleetCoordinator(t *testing.T, n int, catalogVersion string, mkWorld func(testing.TB) *world) *dist.Coordinator {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		ww := mkWorld(t)
		_, ts := newWorkerNode(t, Config{Env: ww.env, Catalog: ww.cat, CatalogVersion: catalogVersion}, nil)
		urls[i] = ts.URL
	}
	return newCoordinator(t, urls...)
}

// newCoordinator is a coordinator with the given worker nodes registered.
func newCoordinator(t *testing.T, workers ...string) *dist.Coordinator {
	t.Helper()
	coord := dist.NewCoordinator(dist.CoordinatorConfig{HeartbeatEvery: 100 * time.Millisecond, Log: log.New(io.Discard, "", 0)})
	t.Cleanup(coord.Close)
	for _, url := range workers {
		if err := coord.Register(strings.TrimPrefix(url, "http://")); err != nil {
			t.Fatal(err)
		}
	}
	return coord
}

// newWorkerNode starts a Server on an httptest listener, with wrap (when
// non-nil) around its handler, as a coordinator's fleet meets it.
func newWorkerNode(t testing.TB, cfg Config, wrap func(http.Handler) http.Handler) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewUnstartedServer(h)
	ts.Config.ConnContext = dist.ConnContext
	ts.Start()
	t.Cleanup(ts.Close)
	return s, ts
}

// bodyRows returns a streamed response's rows, sorted, without the
// trailer.
func bodyRows(res queryResult) []string {
	lines := strings.Split(strings.TrimSpace(res.body), "\n")
	out := lines[:len(lines)-1]
	sort.Strings(out)
	return out
}

// TestDistAggregateSplitsAtCut runs one aggregate over a distributable
// exchange on a single-process server and on a server with a worker
// fleet, record-at-a-time and at the default batch size. Both cost the
// plan the same way: the aggregate splits across the exchange, the
// coordinator ships the partial aggregate with the cut, so each fragment
// sends its groups rather than its raw rows, and the coordinator
// combines them. Both answers must be the same rows.
func TestDistAggregateSplitsAtCut(t *testing.T) {
	const query = "pscan emp 4 | exchange producers=4 | agg group dept compute count, sum(id), max(salary)"
	coord := newFleetCoordinator(t, 2, "", newWorld)
	_, _, soloTS, _ := newTestServer(t, nil)
	_, fleetWorld, fleetTS, _ := newTestServer(t, func(c *Config) { c.Dist = coord })

	for _, batch := range []string{"1", "83"} {
		solo, err := postQueryAnalyzeBatch(soloTS, query, batch)
		if err != nil {
			t.Fatal(err)
		}
		fleet, err := postQueryAnalyzeBatch(fleetTS, query, batch)
		if err != nil {
			t.Fatal(err)
		}
		if solo.trailer.Status != "ok" || fleet.trailer.Status != "ok" {
			t.Fatalf("batch %s: status solo %q, fleet %q: %s", batch, solo.trailer.Status, fleet.trailer.Status, fleet.body)
		}
		for name, res := range map[string]queryResult{"single-process": solo, "fleet": fleet} {
			if !strings.Contains(res.trailer.Analyze, "aggregate combine") {
				t.Errorf("batch %s: %s plan was not split:\n%s", batch, name, res.trailer.Analyze)
			}
		}
		if got, want := strings.Join(bodyRows(fleet), "\n"), strings.Join(bodyRows(solo), "\n"); got != want || len(bodyRows(solo)) != empDepts {
			t.Fatalf("batch %s: fleet rows:\n%s\nsingle-process rows:\n%s", batch, got, want)
		}

		d := fleet.trailer.Dist
		if d == nil || len(d.Fragments) != empParts {
			t.Fatalf("batch %s: dist block = %+v, want %d fragments", batch, d, empParts)
		}
		var shipped int64
		for _, f := range d.Fragments {
			if f.State != "done" {
				t.Errorf("batch %s: fragment %+v not done", batch, f)
			}
			shipped += f.Records
		}
		if shipped > empParts*empDepts {
			t.Errorf("batch %s: fragments shipped %d records, want at most %d partial groups", batch, shipped, empParts*empDepts)
		}
		if n := strings.Count(fleet.trailer.Analyze, "fragment path="); n != empParts {
			t.Errorf("batch %s: EXPLAIN ANALYZE lists %d fragments, want %d:\n%s", batch, n, empParts, fleet.trailer.Analyze)
		}
	}

	// The node the coordinator ships is the one a worker builds: decoded
	// on the worker's side of the wire, over the worker's own copy of the
	// data, it yields the schema the coordinator's probe planned with.
	tpl, err := plan.Compile(query)
	if err != nil {
		t.Fatal(err)
	}
	x := tpl.Cost(fleetWorld.cat, nil).Template.Root().Inputs[0] // the exchange under the combiner
	if !plan.Distributable(x) || x.Inputs[0].Kind != plan.KindAggregate {
		t.Fatalf("costed plan has no distributable cut over a partial aggregate:\n%s", plan.Explain(x))
	}
	want, err := plan.BuildFragmentProducer(fleetWorld.env, fleetWorld.cat, x, 0, plan.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(x)
	if err != nil {
		t.Fatal(err)
	}
	shipped, err := plan.DecodeFragment(data)
	if err != nil {
		t.Fatal(err)
	}
	ww := newWorld(t)
	got, err := plan.BuildFragmentProducer(ww.env, ww.cat, shipped, 0, plan.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Schema().Equal(want.Schema()) {
		t.Errorf("worker builds schema %s from the shipped node, coordinator probed %s", got.Schema(), want.Schema())
	}
}

// newRewriteWorld builds the tables internal/plan's rewrite corpus
// reads, as its differential fixture holds them: dept(dno, dname) with
// four rows; staff.0..3, 800 emp-shaped rows dealt round robin (dept =
// i%7, so 4..6 have no dept row; salaries carry fractions, so float sums
// round); dparts.0..3, dept dealt one row per partition.
func newRewriteWorld(t testing.TB) *world {
	t.Helper()
	w, vol := newEmptyWorld(t)
	empSchema := record.MustSchema(
		record.Field{Name: "id", Type: record.TInt},
		record.Field{Name: "dept", Type: record.TInt},
		record.Field{Name: "salary", Type: record.TFloat},
		record.Field{Name: "name", Type: record.TString},
	)
	deptSchema := record.MustSchema(
		record.Field{Name: "dno", Type: record.TInt},
		record.Field{Name: "dname", Type: record.TString},
	)
	deal := func(name string, schema *record.Schema, rows [][]byte) {
		for p := 0; p < 4; p++ {
			f := mustCreate(t, vol, fmt.Sprintf("%s.%d", name, p), schema)
			for i := p; i < len(rows); i += 4 {
				mustInsert(t, f, rows[i])
			}
		}
	}
	staff := make([][]byte, 800)
	for i := range staff {
		staff[i] = empSchema.MustEncode(
			record.Int(int64(i)), record.Int(int64(i%7)),
			record.Float(1000+float64(i%13)*10.01), record.Str(fmt.Sprintf("staff-%d", i)),
		)
	}
	deal("staff", empSchema, staff)
	depts := make([][]byte, 4)
	for i := range depts {
		depts[i] = deptSchema.MustEncode(record.Int(int64(i)), record.Str(fmt.Sprintf("dept-%d", i)))
	}
	deal("dparts", deptSchema, depts)
	dept := mustCreate(t, vol, "dept", deptSchema)
	for _, row := range depts {
		mustInsert(t, dept, row)
	}
	return w
}

// TestDistRewriteCorpus runs every plan of internal/plan's rewrite
// corpus whose costed tree has a distributable cut on a server with a
// two-worker fleet and on the same server alone, record-at-a-time and at
// the default batch size. The rewrites now cross the cut — partial
// aggregates and pushed joins run on the workers — and the fleet's rows
// must be the single process's: identical after sorting, or, for the
// float sums and averages the corpus marks, equal within its tolerance.
func TestDistRewriteCorpus(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "plan", "testdata", "rewrite_corpus.json"))
	if err != nil {
		t.Fatal(err)
	}
	var corpus []struct {
		Name, Script string
		Tolerance    float64
	}
	if err := json.Unmarshal(data, &corpus); err != nil {
		t.Fatal(err)
	}
	coord := newFleetCoordinator(t, 2, "", newRewriteWorld)
	_, _, soloTS, _ := newTestServer(t, func(c *Config) {
		w := newRewriteWorld(t)
		c.Env, c.Catalog = w.env, w.cat
	})
	fleetWorld := newRewriteWorld(t)
	_, _, fleetTS, _ := newTestServer(t, func(c *Config) {
		c.Env, c.Catalog, c.Dist = fleetWorld.env, fleetWorld.cat, coord
	})

	ran := 0
	for _, tc := range corpus {
		tpl, err := plan.Compile(tc.Script)
		if err != nil {
			t.Fatalf("%s: %v", tc.Name, err)
		}
		if !hasCut(tpl.Cost(fleetWorld.cat, nil).Template.Root()) {
			continue
		}
		ran++
		for _, batch := range []string{"1", "83"} {
			solo, err := postQueryBatch(soloTS, tc.Script, batch)
			if err != nil {
				t.Fatal(err)
			}
			fleet, err := postQueryBatch(fleetTS, tc.Script, batch)
			if err != nil {
				t.Fatal(err)
			}
			if solo.trailer.Status != "ok" || fleet.trailer.Status != "ok" {
				t.Fatalf("%s batch %s: status solo %q, fleet %q (%s)", tc.Name, batch, solo.trailer.Status, fleet.trailer.Status, fleet.trailer.Error)
			}
			if d := fleet.trailer.Dist; d == nil || len(d.Fragments) == 0 {
				t.Fatalf("%s batch %s: the fleet shipped no fragment", tc.Name, batch)
			}
			for _, f := range fleet.trailer.Dist.Fragments {
				if f.State != "done" {
					t.Errorf("%s batch %s: fragment %+v not done", tc.Name, batch, f)
				}
			}
			if err := sameNDJSON(bodyRows(fleet), bodyRows(solo), tc.Tolerance); err != nil {
				t.Fatalf("%s batch %s: fleet vs single process: %v", tc.Name, batch, err)
			}
		}
	}
	if ran == 0 {
		t.Fatal("no rewrite-corpus plan has a distributable cut")
	}
}

// hasCut reports whether a plan offers a coordinator a distributable
// exchange cut: one on the path from the root that passes no other
// exchange and no choose-plan.
func hasCut(n *plan.Node) bool {
	switch n.Kind {
	case plan.KindExchange:
		return plan.Distributable(n)
	case plan.KindChoosePlan:
		return false
	}
	for _, in := range n.Inputs {
		if hasCut(in) {
			return true
		}
	}
	return false
}

var numberRE = regexp.MustCompile(`-?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?`)

// sameNDJSON compares two sorted sets of NDJSON rows by the rule of the
// plan package's differential test (sameRows): with tol = 0 the rows
// must be identical; with tol > 0 rows are ordered by their text with
// every number at six significant digits, and paired rows must agree
// but for numbers within the relative tolerance tol.
func sameNDJSON(got, want []string, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	if tol > 0 {
		key := func(row string) string {
			return numberRE.ReplaceAllStringFunc(row, func(n string) string {
				f, _ := strconv.ParseFloat(n, 64)
				return strconv.FormatFloat(f, 'g', 6, 64)
			})
		}
		got, want = append([]string(nil), got...), append([]string(nil), want...)
		for _, rows := range [][]string{got, want} {
			sort.SliceStable(rows, func(i, j int) bool { return key(rows[i]) < key(rows[j]) })
		}
	}
	for i := range want {
		if got[i] == want[i] {
			continue
		}
		g, w := numberRE.FindAllString(got[i], -1), numberRE.FindAllString(want[i], -1)
		same := tol > 0 && len(g) == len(w) && numberRE.ReplaceAllString(got[i], "#") == numberRE.ReplaceAllString(want[i], "#")
		for j := 0; same && j < len(g); j++ {
			x, _ := strconv.ParseFloat(g[j], 64)
			y, _ := strconv.ParseFloat(w[j], 64)
			same = math.Abs(x-y) <= tol*math.Max(math.Abs(x), math.Abs(y))
		}
		if !same {
			return fmt.Errorf("row %d differs:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
	return nil
}

// TestDistCatalogVersionSentToWorkers: the server sends its
// Config.CatalogVersion with every dispatch, so a worker on another
// catalog version refuses the fragment and the query fails with the
// mismatch instead of running against the wrong data.
func TestDistCatalogVersionSentToWorkers(t *testing.T) {
	coord := newFleetCoordinator(t, 1, "v2", newWorld)
	_, _, ts, _ := newTestServer(t, func(c *Config) {
		c.Dist = coord
		c.CatalogVersion = "v1"
	})
	res, err := postQuery(ts, "pscan emp 4 | exchange producers=4")
	if err != nil {
		t.Fatal(err)
	}
	if res.trailer.Status == "ok" || !strings.Contains(res.trailer.Error, `catalog version mismatch: coordinator "v1", worker "v2"`) {
		t.Fatalf("trailer %+v, want the catalog version mismatch", res.trailer)
	}
}

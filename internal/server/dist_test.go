package server

import (
	"io"
	"log"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/plan"
)

// newFleetCoordinator starts n in-process workers, each over its own
// copy of the test database and at the given catalog version, and
// returns a coordinator with all of them registered.
func newFleetCoordinator(t *testing.T, n int, catalogVersion string) *dist.Coordinator {
	t.Helper()
	quiet := log.New(io.Discard, "", 0)
	coord, err := dist.NewCoordinator(dist.CoordinatorConfig{
		HeartbeatEvery: 100 * time.Millisecond,
		ConnWait:       5 * time.Second,
		Log:            quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	for i := 0; i < n; i++ {
		ww := newWorld(t)
		wk, err := dist.NewWorker(dist.WorkerConfig{Env: ww.env, Catalog: ww.cat, CatalogVersion: catalogVersion, Log: quiet})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(wk.Handler())
		t.Cleanup(srv.Close)
		t.Cleanup(wk.Stop)
		if err := coord.Register(strings.TrimPrefix(srv.URL, "http://")); err != nil {
			t.Fatal(err)
		}
	}
	return coord
}

// TestDistAggregateKeepsCuts runs one aggregate over a distributable
// exchange on a single-process server and on a server with a worker
// fleet. Alone, the cost pass splits the aggregate across the exchange;
// with a coordinator it must not — a worker recompiles the uncosted
// source, so the fragments carry raw emp rows and the coordinator
// aggregates them. Both answers must be the same rows.
func TestDistAggregateKeepsCuts(t *testing.T) {
	const query = "pscan emp 4 | exchange producers=4 | agg group dept compute count, sum(id), max(salary)"
	coord := newFleetCoordinator(t, 2, "")
	_, _, soloTS, _ := newTestServer(t, nil)
	_, fleetWorld, fleetTS, _ := newTestServer(t, func(c *Config) { c.Dist = coord })

	rows := func(res queryResult) []string {
		lines := strings.Split(strings.TrimSpace(res.body), "\n")
		out := lines[:len(lines)-1]
		sort.Strings(out)
		return out
	}
	solo, err := postQueryAnalyze(soloTS, query)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := postQueryAnalyze(fleetTS, query)
	if err != nil {
		t.Fatal(err)
	}
	if solo.trailer.Status != "ok" || fleet.trailer.Status != "ok" {
		t.Fatalf("status solo %q, fleet %q: %s", solo.trailer.Status, fleet.trailer.Status, fleet.body)
	}
	if !strings.Contains(solo.trailer.Analyze, "aggregate combine") {
		t.Errorf("single-process plan was not split:\n%s", solo.trailer.Analyze)
	}
	if strings.Contains(fleet.trailer.Analyze, "aggregate combine") {
		t.Errorf("fleet plan was split across a cut:\n%s", fleet.trailer.Analyze)
	}
	if got, want := strings.Join(rows(fleet), "\n"), strings.Join(rows(solo), "\n"); got != want || len(rows(solo)) != empDepts {
		t.Fatalf("fleet rows:\n%s\nsingle-process rows:\n%s", got, want)
	}

	d := fleet.trailer.Dist
	if d == nil || len(d.Fragments) != empParts {
		t.Fatalf("dist block = %+v, want %d fragments", d, empParts)
	}
	var shipped int64
	for _, f := range d.Fragments {
		if f.State != "done" {
			t.Errorf("fragment %+v not done", f)
		}
		shipped += f.Records
	}
	if shipped != empRows {
		t.Errorf("fragments shipped %d records, want the %d raw rows", shipped, empRows)
	}

	// The cut the coordinator plans is the one a worker rebuilds from the
	// uncosted source: same path, same producer schema.
	tpl, err := plan.Compile(query)
	if err != nil {
		t.Fatal(err)
	}
	costed := tpl.CostKeepingCuts(fleetWorld.cat, nil).Template.Root()
	const cut = "0" // the exchange under the aggregate
	if x, err := plan.NodeAtPath(costed, cut); err != nil || !plan.Distributable(x) {
		t.Fatalf("costed plan has no distributable cut at %q: %v", cut, err)
	}
	got, err := plan.FragmentSchema(fleetWorld.env, fleetWorld.cat, costed, cut)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plan.FragmentSchema(fleetWorld.env, fleetWorld.cat, tpl.Root(), cut)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Errorf("coordinator cut schema %s, worker %s", got, want)
	}
}

// TestDistCatalogVersionSentToWorkers: the server sends its
// Config.CatalogVersion with every dispatch, so a worker on another
// catalog version refuses the fragment and the query fails with the
// mismatch instead of running against the wrong data.
func TestDistCatalogVersionSentToWorkers(t *testing.T) {
	coord := newFleetCoordinator(t, 1, "v2")
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

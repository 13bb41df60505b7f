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

// TestDistAggregateKeepsCuts runs one aggregate over a distributable
// exchange on a single-process server and on a server with a worker
// fleet. Alone, the cost pass splits the aggregate across the exchange;
// with a coordinator it must not — a worker recompiles the uncosted
// source, so the fragments carry raw emp rows and the coordinator
// aggregates them. Both answers must be the same rows.
func TestDistAggregateKeepsCuts(t *testing.T) {
	const query = "pscan emp 4 | exchange producers=4 | agg group dept compute count, sum(id), max(salary)"
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
	for i := 0; i < 2; i++ {
		ww := newWorld(t)
		wk, err := dist.NewWorker(dist.WorkerConfig{Env: ww.env, Catalog: ww.cat, Log: quiet})
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
	cuts := plan.Cuts(costed)
	if len(cuts) != 1 {
		t.Fatalf("costed plan has %d cuts, want 1", len(cuts))
	}
	got, err := plan.FragmentSchema(fleetWorld.env, fleetWorld.cat, costed, cuts[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plan.FragmentSchema(fleetWorld.env, fleetWorld.cat, tpl.Root(), cuts[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Errorf("coordinator cut schema %s, worker %s", got, want)
	}
}

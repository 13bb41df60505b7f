package plan

import (
	"strings"
	"testing"

	"repro/internal/core"
)

func TestBuildAnalyzedCounts(t *testing.T) {
	db := newTestDB(t)
	db.loadEmp(t, 100, 4)
	n, err := Parse("scan emp | filter dept = 1 | sort salary desc")
	if err != nil {
		t.Fatal(err)
	}
	it, an, err := BuildWith(db.env, db.cat, n, BuildOptions{Analyze: true})
	if err != nil {
		t.Fatal(err)
	}
	count, err := core.Drain(it, 0)
	if err != nil {
		t.Fatal(err)
	}
	if count != 25 {
		t.Fatalf("rows = %d", count)
	}
	// Root (sort) produced 25, filter produced 25, scan produced 100.
	if got := an.Stats(n).Rows.Load(); got != 25 {
		t.Fatalf("sort rows = %d", got)
	}
	if got := an.Stats(n.Inputs[0]).Rows.Load(); got != 25 {
		t.Fatalf("filter rows = %d", got)
	}
	if got := an.Stats(n.Inputs[0].Inputs[0]).Rows.Load(); got != 100 {
		t.Fatalf("scan rows = %d", got)
	}
	out := an.String()
	if !strings.Contains(out, "rows=100") || !strings.Contains(out, "rows=25") {
		t.Fatalf("analysis output:\n%s", out)
	}
}

func TestBuildAnalyzedParallelAggregatesInstances(t *testing.T) {
	db := newTestDB(t)
	db.loadPartitioned(t, "nums", 600, 3)
	n, err := Parse("pscan nums 3 | exchange producers=3 | agg group v compute count")
	if err != nil {
		t.Fatal(err)
	}
	it, an, err := BuildWith(db.env, db.cat, n, BuildOptions{Analyze: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Drain(it, 0); err != nil {
		t.Fatal(err)
	}
	// The pscan node aggregates across all three producer instances.
	scanNode := n.Inputs[0].Inputs[0]
	if got := an.Stats(scanNode).Rows.Load(); got != 600 {
		t.Fatalf("pscan rows = %d, want 600", got)
	}
	if got := an.Stats(scanNode).Opens.Load(); got != 3 {
		t.Fatalf("pscan opens = %d, want 3", got)
	}
	// The exchange node registered its hub: 600 records crossed the port.
	xNode := n.Inputs[0]
	xs := an.ExchangeStats(xNode)
	if xs.Records != 600 {
		t.Fatalf("exchange records = %d, want 600", xs.Records)
	}
	if xs.Packets < 3 {
		t.Fatalf("exchange packets = %d", xs.Packets)
	}
	if xs.Forks != 3 {
		t.Fatalf("exchange forks = %d, want 3", xs.Forks)
	}
	// Every packet pushed was obtained by exactly one pool get, so the
	// aggregated stats must carry the pool counters through intact.
	if xs.PoolHits+xs.PoolMisses != xs.Packets {
		t.Fatalf("pool hits %d + misses %d != packets %d", xs.PoolHits, xs.PoolMisses, xs.Packets)
	}
	out := an.String()
	for _, want := range []string{"packets=", "stall=", "wait=", "buffer: fixes="} {
		if !strings.Contains(out, want) {
			t.Fatalf("analysis output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "pins balanced") {
		t.Fatalf("pin leak reported:\n%s", out)
	}
}

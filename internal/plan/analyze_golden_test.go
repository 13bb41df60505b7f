package plan

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/core"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// timingRE matches the wall-time values in an analyze report, the
// footer's CPU time included. The pool hit/miss/discard split depends on
// how producer refills interleave with consumer returns, so it is
// normalized too. Everything else — rows, calls, packets, records, the
// footer's fixes and bytes — is deterministic for a fixed plan over
// fixed data.
var timingRE = regexp.MustCompile(`(open|next|close|stall|wait|p50|p95|p99|cpu)=[^] }\n]+`)
var poolRE = regexp.MustCompile(`pool=\d+h/\d+m/\d+d`)

func normalizeTimings(s string) string {
	return poolRE.ReplaceAllString(timingRE.ReplaceAllString(s, "$1=T"), "pool=P")
}

// TestAnalyzeGoldenOutput pins the whole EXPLAIN ANALYZE report for a
// parallel plan: tree shape, per-operator counters, exchange port lines
// and the resources footer. The plan is chosen so every non-time counter is
// deterministic: three disjoint partitions of 200 rows each, packet size
// 50 dividing 200 evenly, and a pool large enough that nothing evicts.
// It runs record-at-a-time (batch size 1), so every operator's calls
// count its records plus the end-of-stream call, the exchange's included.
// Regenerate with: go test ./internal/plan -run TestAnalyzeGoldenOutput -update
func TestAnalyzeGoldenOutput(t *testing.T) {
	db := newTestDB(t)
	db.loadPartitioned(t, "nums", 600, 3)
	n, err := Parse("pscan nums 3 | exchange producers=3 packet=50 | agg group v compute count")
	if err != nil {
		t.Fatal(err)
	}
	it, an, err := BuildWith(db.env, db.cat, n, BuildOptions{Analyze: true, BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Drain(it, 1); err != nil {
		t.Fatal(err)
	}
	got := normalizeTimings(an.String())

	golden := filepath.Join("testdata", "analyze.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("analyze report drifted from golden.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestCostedAnalyzeGolden pins the EXPLAIN ANALYZE report of a *costed*
// run: the planner-chosen exchange fan-out, the est= column next to the
// observed rows on every operator, and the chosen= line under the
// choose-plan node. The plan leaves its knobs open on purpose — the
// report is the proof that the costing pass filled them. The build side
// (dept, 5 rows) is small against the 600-row probe, so the pass moves
// the join below the exchange: each of the 3 producers builds its own
// table (scan dept opens=3), and the exchange carries the 5 joined
// records instead of the 600 scanned ones.
// Regenerate with: go test ./internal/plan -run TestCostedAnalyzeGolden -update
func TestCostedAnalyzeGolden(t *testing.T) {
	db := newTestDB(t)
	db.loadEmp(t, 50, 5)
	db.loadPartitioned(t, "nums", 600, 3)
	tpl, err := Compile("with d = scan dept\npscan nums 3 | exchange packet=50 | join hash d on v = dno")
	if err != nil {
		t.Fatal(err)
	}
	stripKnobs(tpl.root)
	cp := tpl.Cost(db.cat, nil)
	it, an, err := BuildWith(db.env, db.cat, cp.Template.Root(), BuildOptions{
		Analyze:   true,
		BatchSize: 1,
		Estimates: cp.Estimates,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Drain(it, 1); err != nil {
		t.Fatal(err)
	}
	got := normalizeTimings(an.String())

	golden := filepath.Join("testdata", "analyze_cost.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("costed analyze report drifted from golden.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

package plan

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/record"
)

// stripKnobs removes every knob the costing pass can fill, turning an
// explicit corpus plan into the knobless form a user would write when
// trusting the planner: exchange producer counts and packet sizes
// revert to "unset", match algorithms to "unchosen".
func stripKnobs(n *Node) {
	if n.X != nil {
		n.X.ProducersSet = false
		n.X.Producers = 1
		n.X.PacketSize = 0
	}
	n.AlgoSet = false
	for _, in := range n.Inputs {
		stripKnobs(in)
	}
}

// findChoose returns every choose-plan node in a costed tree, pre-order.
func findChoose(n *Node) []*Node {
	var out []*Node
	if n.Kind == KindChoosePlan {
		out = append(out, n)
	}
	for _, in := range n.Inputs {
		out = append(out, findChoose(in)...)
	}
	return out
}

// TestCostMetamorphicCorpus is the planner's metamorphic property over
// the differential corpus: stripping every knob the costing pass can
// fill and letting it re-pick them must not change any result set —
// at any batch size. This is what makes the pass safe to
// run on every server query: whatever parallelism, packet size, or
// choose-plan strategy it selects, the answer is the text plan's answer.
func TestCostMetamorphicCorpus(t *testing.T) {
	db := newDiffDB(t)
	chooseSeen := false
	for _, tc := range append(diffCorpus, rewriteCorpus...) {
		t.Run(tc.name, func(t *testing.T) {
			ref, err := Parse(tc.script)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			refRows, err := Run(db.env, db.cat, ref, 0)
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			tpl, err := Compile(tc.script)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			stripKnobs(tpl.root)
			cp := tpl.Cost(db.cat, nil)
			root := cp.Template.Root()
			if len(findChoose(root)) > 0 {
				chooseSeen = true
			}
			costedRows, err := Run(db.env, db.cat, root, 0)
			if err != nil {
				t.Fatalf("costed run: %v", err)
			}
			if err := sameRows(costedRows, refRows, diffTolerance[tc.name]); err != nil {
				t.Fatalf("costed plan changed the result: %v\nplan:\n%s", err, Explain(root))
			}
			for _, size := range diffBatchSizes {
				batchRows, err := Run(db.env, db.cat, root, size)
				if err != nil {
					t.Fatalf("costed batch size %d: %v", size, err)
				}
				if err := sameRows(batchRows, refRows, diffTolerance[tc.name]); err != nil {
					t.Fatalf("costed plan changed the batch-%d result: %v\nplan:\n%s", size, err, Explain(root))
				}
			}
			if pinned := db.pool.PinnedFrames(); pinned != 0 {
				t.Fatalf("%d frames still pinned after costed runs", pinned)
			}
		})
	}
	if !chooseSeen {
		t.Fatalf("no corpus plan produced a choose-plan node — the metamorphic property never exercised one")
	}
}

// TestCostFillsExchangeDOP pins the structural planning rule: an
// exchange whose producer count the text omits gets the partition count
// of the pscan below it (anything else would duplicate or underread a
// non-partitioned subtree), while explicit counts are left alone.
func TestCostFillsExchangeDOP(t *testing.T) {
	db := newDiffDB(t)
	cases := []struct {
		script    string
		producers int
		packet    int // 0 = don't check
	}{
		{"pscan nums 4 | exchange", 4, 16},           // 500 rows -> small packets
		{"pscan nums 4 | exchange packet=16", 4, 16}, // explicit packet kept
		{"pscan nums 4 | exchange producers=2 packet=16", 2, 16},
		{"scan emp | exchange", 1, 0}, // no pscan below: fan-out must stay 1
	}
	for _, tc := range cases {
		tpl, err := Compile(tc.script)
		if err != nil {
			t.Fatalf("compile %q: %v", tc.script, err)
		}
		cp := tpl.Cost(db.cat, nil)
		x := cp.Template.Root().X
		if x == nil {
			t.Fatalf("%q: costed root is not an exchange", tc.script)
		}
		if x.Producers != tc.producers {
			t.Errorf("%q: producers = %d, want %d", tc.script, x.Producers, tc.producers)
		}
		if tc.packet != 0 && x.PacketSize != tc.packet {
			t.Errorf("%q: packet = %d, want %d", tc.script, x.PacketSize, tc.packet)
		}
	}
	// The costed template's goroutine footprint must reflect the chosen
	// fan-out: admission control weighs what will actually run.
	tpl, err := Compile("pscan nums 4 | exchange")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tpl.Cost(db.cat, nil).Template.ProducerGoroutines(), tpl.ProducerGoroutines(); got <= want {
		t.Errorf("costed ProducerGoroutines = %d, want > uncosted %d", got, want)
	}
}

// TestCostLargeStreamPacketTier pins the top packet tier to a size the
// exchange accepts: a knobless exchange over a stream estimated at 50 k
// rows or more must cost, build, run, and agree with the same plan with
// its knobs spelled out.
func TestCostLargeStreamPacketTier(t *testing.T) {
	db := newTestDB(t)
	s := record.MustSchema(record.Field{Name: "v", Type: record.TInt})
	for p := 0; p < 2; p++ {
		name := fmt.Sprintf("big.%d", p)
		f, err := db.vol.Create(name, s)
		if err != nil {
			t.Fatal(err)
		}
		for i := p; i < 50_000; i += 2 {
			if _, err := f.Insert(s.MustEncode(record.Int(int64(i)))); err != nil {
				t.Fatal(err)
			}
		}
		db.cat[name] = f
	}
	ref, err := Parse("pscan big 2 | exchange producers=2 packet=83 | filter v % 1000 = 0 | sort v")
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(db.env, db.cat, ref, 0)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	tpl, err := Compile("pscan big 2 | exchange | filter v % 1000 = 0 | sort v")
	if err != nil {
		t.Fatal(err)
	}
	root := tpl.Cost(db.cat, nil).Template.Root()
	got, err := Run(db.env, db.cat, root, 0)
	if err != nil {
		t.Fatalf("costed run: %v\nplan:\n%s", err, Explain(root))
	}
	if len(want) != 50 || strings.Join(renderSorted(got), "\n") != strings.Join(renderSorted(want), "\n") {
		t.Fatalf("costed plan returned %d rows, reference %d (want 50)\nplan:\n%s", len(got), len(want), Explain(root))
	}
}

// TestCostChoosePlanInsertion pins when the pass defers the hash-vs-
// merge decision to Open: only for equality matches whose algorithm the
// text left unchosen and whose build side resolves to a catalog table.
func TestCostChoosePlanInsertion(t *testing.T) {
	db := newDiffDB(t)

	tpl, err := Compile("with d = scan dept\nscan emp | join hash d on dept = dno")
	if err != nil {
		t.Fatal(err)
	}
	stripKnobs(tpl.root)
	cp := tpl.Cost(db.cat, nil)
	chooses := findChoose(cp.Template.Root())
	if len(chooses) != 1 {
		t.Fatalf("costed plan has %d choose-plan nodes, want 1:\n%s", len(chooses), Explain(cp.Template.Root()))
	}
	ch := chooses[0]
	if ch.Choose == nil || ch.Choose.Table != "dept" {
		t.Fatalf("choose spec = %+v, want table dept", ch.Choose)
	}
	if got := strings.Join(ch.Choose.Labels, "|"); got != "hash|merge" {
		t.Fatalf("choose labels = %q, want hash|merge", got)
	}
	if len(ch.Inputs) != 2 {
		t.Fatalf("choose has %d alternatives, want 2", len(ch.Inputs))
	}
	if ch.Inputs[0] == ch.Inputs[1] || ch.Inputs[0].Inputs[0] == ch.Inputs[1].Inputs[0].Inputs[0] {
		t.Fatalf("alternatives share node pointers — per-node stats would collide")
	}
	merge := ch.Inputs[1]
	if merge.Algo != AlgoSort || !merge.AlgoSet {
		t.Fatalf("alternative 1 algo = %v (set=%v), want explicit sort", merge.Algo, merge.AlgoSet)
	}
	for i, in := range merge.Inputs {
		if in.Kind != KindSort {
			t.Fatalf("merge alternative input %d is %v, want a sort", i, in.Kind)
		}
	}
	if _, ok := cp.Estimates[ch]; !ok {
		t.Fatalf("choose-plan node has no cardinality estimate")
	}

	// An explicit algorithm is a user decision: never second-guessed.
	tpl2, err := Compile("with d = scan dept\nscan emp | join merge d on dept = dno")
	if err != nil {
		t.Fatal(err)
	}
	if got := findChoose(tpl2.Cost(db.cat, nil).Template.Root()); len(got) != 0 {
		t.Fatalf("explicit merge join was wrapped in a choose-plan")
	}
}

// TestChoosePlanDecisionByStats drives both sides of the decision
// function through the catalog it consults at Open: under the
// threshold the hash alternative runs, over it the merge alternative
// does — same rows either way.
func TestChoosePlanDecisionByStats(t *testing.T) {
	const script = "with d = scan dept\nscan emp | join hash d on dept = dno"
	db := newDiffDB(t)
	ref, err := Parse(script)
	if err != nil {
		t.Fatal(err)
	}
	refRows, err := Run(db.env, db.cat, ref, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := renderSorted(refRows)

	run := func(t *testing.T, threshold int64, wantChoice int, wantLabel string) {
		old := DefaultHashBuildThreshold
		DefaultHashBuildThreshold = threshold
		defer func() { DefaultHashBuildThreshold = old }()
		tpl, err := Compile(script)
		if err != nil {
			t.Fatal(err)
		}
		stripKnobs(tpl.root)
		cp := tpl.Cost(db.cat, nil)
		it, an, err := BuildWith(db.env, db.cat, cp.Template.Root(), BuildOptions{
			Analyze:   true,
			Estimates: cp.Estimates,
		})
		if err != nil {
			t.Fatal(err)
		}
		rows, err := core.Collect(it, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := renderSorted(rows); strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("threshold %d changed the result set", threshold)
		}
		chooses := findChoose(cp.Template.Root())
		if len(chooses) != 1 {
			t.Fatalf("%d choose-plan nodes, want 1", len(chooses))
		}
		if got := an.Choice(chooses[0]); got != wantChoice {
			t.Fatalf("choice = %d, want %d (%s)", got, wantChoice, wantLabel)
		}
		if report := an.String(); !strings.Contains(report, "chosen="+wantLabel) {
			t.Fatalf("analyze report does not name the chosen alternative %q:\n%s", wantLabel, report)
		}
	}
	// dept has 4 records: threshold 100 keeps the hash build, threshold 3
	// tips the decision to sort-merge.
	t.Run("hash", func(t *testing.T) { run(t, 100, 0, "hash") })
	t.Run("merge", func(t *testing.T) { run(t, 3, 1, "merge") })
}

// TestCostMisEstimateFeedback closes the loop the server runs per cache
// entry: a selective predicate the model can't see mis-estimates by more
// than the factor, one re-cost with the observed cardinalities fixes it,
// and the corrected plan no longer trips the detector — exactly one
// re-plan, then convergence.
func TestCostMisEstimateFeedback(t *testing.T) {
	db := newDiffDB(t)
	tpl, err := Compile("scan emp | filter id < 1")
	if err != nil {
		t.Fatal(err)
	}
	runOnce := func(cp *CostedPlan) *Analysis {
		it, an, err := BuildWith(db.env, db.cat, cp.Template.Root(), BuildOptions{
			Analyze:   true,
			Estimates: cp.Estimates,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.Collect(it, 0); err != nil {
			t.Fatal(err)
		}
		return an
	}

	cp := tpl.Cost(db.cat, nil)
	an := runOnce(cp)
	node, est, obs, mis := cp.MisEstimated(an, MisEstimateFactor)
	if !mis {
		t.Fatalf("selective filter did not register as mis-estimated")
	}
	if node == nil || est <= obs {
		t.Fatalf("mis-estimate = node %v est %d obs %d; want an overestimate", node, est, obs)
	}

	// Re-cost with the observations folded back — the server does this by
	// discarding the cache entry's costed plan and re-deriving.
	observed := cp.Observed(an)
	if len(observed) == 0 {
		t.Fatalf("no observed cardinalities extracted")
	}
	cp2 := tpl.Cost(db.cat, observed)
	an2 := runOnce(cp2)
	if _, est2, obs2, mis2 := cp2.MisEstimated(an2, MisEstimateFactor); mis2 {
		t.Fatalf("re-costed plan still mis-estimated (est %d obs %d) — feedback did not converge", est2, obs2)
	}
}

// TestParseDOPBounds pins the parse-time validation of parallelism
// knobs: out-of-range values fail with a positioned ParseError before
// any build or admission decision sees them.
func TestParseDOPBounds(t *testing.T) {
	for _, tc := range []struct {
		script string
		frag   string
	}{
		{"pscan nums 2000", "exceeds max"},
		{"pscan nums 4 | exchange producers=0", "out of range"},
		{"pscan nums 4 | exchange producers=2000", "out of range"},
	} {
		_, err := Parse(tc.script)
		if err == nil {
			t.Fatalf("%q: parse succeeded, want DOP bound error", tc.script)
		}
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Fatalf("%q: error %T is not a *ParseError: %v", tc.script, err, err)
		}
		if !strings.Contains(err.Error(), tc.frag) {
			t.Fatalf("%q: error %q does not mention %q", tc.script, err, tc.frag)
		}
	}
}

// rewritten reports which rewrites across an exchange a costed tree
// carries: "join" for an inner join below an exchange (no corpus plan
// writes one there), "agg" for a combining aggregate, "join+agg" for
// both, "" for none.
func rewritten(root *Node) string {
	var join, agg bool
	var walk func(n *Node, below bool)
	walk = func(n *Node, below bool) {
		join = join || (below && n.Kind == KindMatch && n.MatchOp == core.MatchJoin)
		agg = agg || n.Combine
		for _, in := range n.Inputs {
			walk(in, below || n.Kind == KindExchange)
		}
	}
	walk(root, false)
	switch {
	case join && agg:
		return "join+agg"
	case join:
		return "join"
	case agg:
		return "agg"
	}
	return ""
}

// TestCostRewritesAcrossExchange pins, for every corpus plan, whether
// the cost pass moved work below an exchange: a small-build inner join
// and an aggregate of count/sum/min/max over a gathering exchange move;
// avg, outer joins, a build side that differs per producer (pscan) and
// a merge exchange block the move. TestDifferentialCorpus proves each
// rewritten tree answers like the text's. With the fleet's cuts kept,
// nothing moves.
func TestCostRewritesAcrossExchange(t *testing.T) {
	db := newDiffDB(t)
	want := map[string]string{
		"exchange-above-join":          "join",
		"exchange-agg":                 "agg",
		"exchange-join-agg":            "join+agg",
		"exchange-join-agg-positional": "join+agg",
		"exchange-group-only":          "agg",
		"exchange-float-sum":           "agg",
		// Listed for the reader: the guards leave these as written.
		"exchange-agg-avg":     "",
		"exchange-leftouter":   "",
		"exchange-build-pscan": "",
		"exchange-merge-agg":   "",
	}
	for _, tc := range append(diffCorpus, rewriteCorpus...) {
		tpl, err := Compile(tc.script)
		if err != nil {
			t.Fatalf("%s: compile: %v", tc.name, err)
		}
		root := tpl.Cost(db.cat, nil).Template.Root()
		if got := rewritten(root); got != want[tc.name] {
			t.Errorf("%s: rewrites %q, want %q\nplan:\n%s", tc.name, got, want[tc.name], Explain(root))
		}
		if got := rewritten(tpl.CostKeepingCuts(db.cat, nil).Template.Root()); got != "" {
			t.Errorf("%s: rewrites %q across a cut a fleet could run", tc.name, got)
		}
	}
}

// TestCostRewriteRefillsPacket: a packet size the text left open is
// sized from the stream that crosses the exchange after the rewrite,
// not from the one before it; a packet size the text set is kept.
func TestCostRewriteRefillsPacket(t *testing.T) {
	db := newTestDB(t)
	db.loadPartitioned(t, "wide", 4000, 2)
	for _, tc := range []struct {
		script string
		packet int
	}{
		// 4 000 rows take 64-record packets; the partials' estimated
		// min(4 000, 400·2) = 800 groups take 16.
		{"pscan wide 2 | exchange | agg group v compute count", 16},
		{"pscan wide 2 | exchange packet=64 | agg group v compute count", 64},
		// avg blocks the split: the 4 000 rows still cross.
		{"pscan wide 2 | exchange | agg group v compute avg(v)", 64},
	} {
		tpl, err := Compile(tc.script)
		if err != nil {
			t.Fatal(err)
		}
		root := tpl.Cost(db.cat, nil).Template.Root()
		x := root.Inputs[0]
		if x.Kind != KindExchange {
			t.Fatalf("%q: no exchange under the root:\n%s", tc.script, Explain(root))
		}
		if x.X.PacketSize != tc.packet {
			t.Errorf("%q: packet = %d, want %d\nplan:\n%s", tc.script, x.X.PacketSize, tc.packet, Explain(root))
		}
	}
}

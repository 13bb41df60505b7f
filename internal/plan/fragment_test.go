package plan

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/record"
)

// fragmentCut is one distributable exchange boundary of a plan: its
// dotted child-index path from the root, the exchange node there, and
// the number of producer fragments it forks.
type fragmentCut struct {
	Path      string
	Node      *Node
	Producers int
}

// cuts walks the plan from the root and returns every distributable
// exchange boundary, pre-order, as the coordinator's build offers them.
// The walk never descends below an exchange node of any kind: such a
// subtree is instantiated once per producer at run time, so a cut inside
// it would not denote one fragment. Nor does it enter a choose-plan,
// whose alternatives always execute locally.
func cuts(root *Node) []fragmentCut {
	var out []fragmentCut
	var walk func(n *Node, path string)
	walk = func(n *Node, path string) {
		switch {
		case n.Kind == KindExchange:
			if Distributable(n) {
				out = append(out, fragmentCut{Path: path, Node: n, Producers: max(n.X.Producers, 1)})
			}
		case n.Kind != KindChoosePlan:
			for i, in := range n.Inputs {
				walk(in, childPath(path, i))
			}
		}
	}
	walk(root, "")
	return out
}

// fragmentsGoldenHeader opens testdata/fragments.golden: what its
// lines say and why some shipped subtrees are restart-only.
const fragmentsGoldenHeader = `# Fragment decomposition of the costed differential corpus, as a
# coordinator ships it (TestFragmentGoldenCorpus). ships= names the top
# operator of the subtree a worker runs: aggregate is the partial half of
# a split aggregate. restart-only: the subtree holds a nested exchange or
# a choose-plan (a join pushed below the cut keeps its hash|merge choice,
# taken at Open), which may run differently on a retry, so a lost
# fragment is retried from zero rather than resumed.
`

// TestFragmentGoldenCorpus pins the coordinator's fragment decomposition
// of the operator-family corpus, cut from the costed tree a server
// builds and ships: for each plan, which exchange boundaries are
// distributable cuts, at what paths, with how many producer fragments,
// whether skip-replay retry applies (deterministic subtree), and which
// operator tops the shipped subtree. Any change to the cut predicate or
// to a rewrite that crosses a cut shows up here as a diff against a
// reviewed file, not as a silent shift in what runs where. Regenerate
// with:
// go test ./internal/plan -run TestFragmentGoldenCorpus -update
func TestFragmentGoldenCorpus(t *testing.T) {
	db := newDiffDB(t)
	var sb strings.Builder
	sb.WriteString(fragmentsGoldenHeader)
	for _, tc := range diffCorpus {
		tpl, err := Compile(tc.script)
		if err != nil {
			t.Fatalf("compile %s: %v", tc.name, err)
		}
		cs := cuts(tpl.Cost(db.cat, nil).Template.Root())
		if len(cs) == 0 {
			fmt.Fprintf(&sb, "%s: local\n", tc.name)
			continue
		}
		for _, c := range cs {
			det := "resumable"
			if !Deterministic(c.Node.Inputs[0]) {
				det = "restart-only"
			}
			fmt.Fprintf(&sb, "%s: cut path=%q producers=%d %s ships=%s\n",
				tc.name, c.Path, c.Producers, det, c.Node.Inputs[0].Kind)
		}
	}
	got := sb.String()

	golden := filepath.Join("testdata", "fragments.golden")
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
		t.Fatalf("fragment decomposition changed:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestNodeAtPath covers navigation, including rejection of paths that
// leave the tree.
func TestNodeAtPath(t *testing.T) {
	n, err := Parse("with d = scan dept\npscan nums 4 | exchange producers=4 | join hash d on v = dno")
	if err != nil {
		t.Fatal(err)
	}
	root, err := NodeAtPath(n, "")
	if err != nil || root != n {
		t.Fatalf("root path: %v", err)
	}
	x, err := NodeAtPath(n, "0")
	if err != nil || x.Kind != KindExchange {
		t.Fatalf("path 0: kind=%v err=%v", x.Kind, err)
	}
	ps, err := NodeAtPath(n, "0.0")
	if err != nil || ps.Kind != KindPartitionedScan {
		t.Fatalf("path 0.0: err=%v", err)
	}
	for _, bad := range []string{"9", "0.0.0.0", "x", "-1"} {
		if _, err := NodeAtPath(n, bad); err == nil {
			t.Errorf("path %q accepted", bad)
		}
	}
}

// TestRemoteBinderSubstitutes proves the build offers exactly the
// distributable cuts to the binder, with the probe's schema, runs the
// cut's hub over the producers the binder returns, and stops the cut
// when its consumer closes.
func TestRemoteBinderSubstitutes(t *testing.T) {
	db := newTestDB(t)
	db.loadPartitioned(t, "nums", 200, 4)
	n, err := Parse("pscan nums 4 | exchange producers=4 packet=16 | agg hash group v compute count | sort v")
	if err != nil {
		t.Fatal(err)
	}

	// First: what does the plan produce unbound?
	wantRows, err := Run(db.env, db.cat, n, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Bind the cut to a "remote" whose producers are secretly local
	// fragment builds — the binder contract, minus the network.
	var offered []string
	stops := 0
	binder := func(path string, x *Node, schema *record.Schema) (func(int) (core.Iterator, error), func(), error) {
		offered = append(offered, path)
		producer := func(g int) (core.Iterator, error) {
			it, err := BuildFragmentProducer(db.env, db.cat, x, g, BuildOptions{})
			if err == nil && !it.Schema().Equal(schema) {
				err = fmt.Errorf("producer %d schema %s, offered %s", g, it.Schema(), schema)
			}
			return it, err
		}
		return producer, func() { stops++ }, nil
	}
	it, _, err := BuildWith(db.env, db.cat, n, BuildOptions{Remote: binder})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := core.Collect(it, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(offered) != 1 || offered[0] != "0.0" {
		t.Fatalf("binder offered paths %v, want [0.0]", offered)
	}
	if stops != 1 {
		t.Fatalf("closing the cut's consumer called stop %d times, want 1", stops)
	}
	got, want := renderSorted(rows), renderSorted(wantRows)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("bound build diverged from local build")
	}
}

// TestFragmentJSONRoundTrip: every cut a coordinator ships from a costed
// corpus plan survives the trip as JSON — the node a worker decodes is
// reflect.DeepEqual to the one the build was offered, passes the
// worker's checks, and builds the same producer schema.
func TestFragmentJSONRoundTrip(t *testing.T) {
	db := newDiffDB(t)
	shipped := 0
	for _, tc := range append(diffCorpus, rewriteCorpus...) {
		tpl, err := Compile(tc.script)
		if err != nil {
			t.Fatalf("compile %s: %v", tc.name, err)
		}
		for _, c := range cuts(tpl.Cost(db.cat, nil).Template.Root()) {
			data, err := json.Marshal(c.Node)
			if err != nil {
				t.Fatalf("%s cut %q: marshal: %v", tc.name, c.Path, err)
			}
			x, err := DecodeFragment(data)
			if err != nil {
				t.Fatalf("%s cut %q: decode: %v", tc.name, c.Path, err)
			}
			if !reflect.DeepEqual(x, c.Node) {
				t.Fatalf("%s cut %q: decoded node differs\nshipped:\n%s\ndecoded:\n%s", tc.name, c.Path, Explain(c.Node), Explain(x))
			}
			want, err := BuildFragmentProducer(db.env, db.cat, c.Node, 0, BuildOptions{})
			if err != nil {
				t.Fatalf("%s cut %q: %v", tc.name, c.Path, err)
			}
			got, err := BuildFragmentProducer(db.env, db.cat, x, 0, BuildOptions{})
			if err != nil {
				t.Fatalf("%s cut %q: decoded: %v", tc.name, c.Path, err)
			}
			if !got.Schema().Equal(want.Schema()) {
				t.Errorf("%s cut %q: decoded schema %s, shipped %s", tc.name, c.Path, got.Schema(), want.Schema())
			}
			shipped++
		}
	}
	if shipped == 0 {
		t.Fatal("no corpus plan has a cut to ship")
	}
	if pinned := db.pool.PinnedFrames(); pinned != 0 {
		t.Fatalf("%d frames still pinned after the schema probes", pinned)
	}
}

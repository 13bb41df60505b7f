package plan

import (
	"fmt"
	"os"
	"path/filepath"
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

// TestFragmentGoldenCorpus pins the coordinator's fragment decomposition
// of the whole differential corpus: for each of the 24 plans, which
// exchange boundaries are distributable cuts, at what paths, with how
// many producer fragments, and whether skip-replay retry applies
// (deterministic subtree). Any change to the cut predicate shows up here
// as a diff against a reviewed file, not as a silent shift in what runs
// where. Regenerate with:
// go test ./internal/plan -run TestFragmentGoldenCorpus -update
func TestFragmentGoldenCorpus(t *testing.T) {
	var sb strings.Builder
	for _, tc := range diffCorpus {
		n, err := Parse(tc.script)
		if err != nil {
			t.Fatalf("parse %s: %v", tc.name, err)
		}
		cs := cuts(n)
		if len(cs) == 0 {
			fmt.Fprintf(&sb, "%s: local\n", tc.name)
			continue
		}
		for _, c := range cs {
			det := "resumable"
			if !Deterministic(c.Node.Inputs[0]) {
				det = "restart-only"
			}
			fmt.Fprintf(&sb, "%s: cut path=%q producers=%d %s\n", tc.name, c.Path, c.Producers, det)
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

// concatIter drains its inputs in order — the minimal stand-in for a
// remote fragment feed.
type concatIter struct {
	its []core.Iterator
	cur int
}

func (a *concatIter) Schema() *record.Schema { return a.its[0].Schema() }

func (a *concatIter) Open() error {
	for _, it := range a.its {
		if err := it.Open(); err != nil {
			return err
		}
	}
	return nil
}

func (a *concatIter) NextBatch(b *core.Batch) error {
	for a.cur < len(a.its) {
		if err := a.its[a.cur].NextBatch(b); err != nil || b.Len() > 0 {
			return err
		}
		a.cur++
	}
	return nil
}

func (a *concatIter) Close() error {
	var first error
	for _, it := range a.its {
		if err := it.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// TestRemoteBinderSubstitutes proves the build offers exactly the
// distributable cuts to the binder and splices the returned iterator in
// place of the exchange subtree.
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

	// Bind the cut to a "remote" that is secretly a local fragment build
	// of every producer chained through a union-style feed — the binder
	// contract, minus the network.
	var offered []string
	binder := func(path string, x *Node) (core.Iterator, bool, error) {
		offered = append(offered, path)
		its := make([]core.Iterator, 0, x.X.Producers)
		for g := 0; g < x.X.Producers; g++ {
			it, err := BuildFragmentProducer(db.env, db.cat, n, path, g, BuildOptions{})
			if err != nil {
				return nil, false, err
			}
			its = append(its, it)
		}
		return &concatIter{its: its}, true, nil
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
	got, want := renderSorted(rows), renderSorted(wantRows)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("bound build diverged from local build")
	}
}

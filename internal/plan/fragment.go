package plan

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/record"
)

// Fragment decomposition: the coordinator pass that splits a compiled
// plan at exchange boundaries into shippable fragments.
//
// The exchange operator is the only place a Volcano plan crosses a
// process boundary, so it is the only place a plan can be cut: the
// producer subtree below a distributable exchange becomes a fragment a
// remote worker can execute, and the exchange node itself becomes the
// receiving end of a real wire on the coordinator. Because a Template is
// immutable and a fragment is identified purely by position, a fragment
// ships as (plan source, node path, producer index): the worker
// recompiles the same source — compilation is deterministic — navigates
// to the cut, and builds just the producer subtree with the producer
// index in scope, exactly as the local exchange's NewProducer closure
// would have.

// FragmentCut describes one distributable exchange boundary of a plan.
type FragmentCut struct {
	// Path locates the exchange node from the root by child indexes,
	// dotted ("" is the root itself, "0.1" is root.Inputs[0].Inputs[1]).
	Path string
	// Node is the exchange node at Path (within the tree Cuts walked).
	Node *Node
	// Producers is the number of producer fragments the cut forks — one
	// shippable fragment per producer index.
	Producers int
}

// Distributable reports whether an exchange node is a boundary a
// coordinator may cut: a plain fan-in — non-inline (it really forks
// producers), not stream-preserving (a merge exchange's streams must
// share the consumer's address space), and at most one consumer (the
// coordinator is the only receiving site).
func Distributable(n *Node) bool {
	if n == nil || n.Kind != KindExchange || n.X == nil {
		return false
	}
	o := n.X
	return !o.Inline && !o.KeepStreams && o.Consumers <= 1
}

// Cuts walks the plan from the root and returns every distributable
// exchange boundary, pre-order. The walk never descends below an
// exchange node of any kind: such a subtree is instantiated once per
// producer at run time, so a cut inside it would not denote one fragment
// — nested exchanges execute wherever their enclosing fragment runs.
func Cuts(root *Node) []FragmentCut {
	var cuts []FragmentCut
	var walk func(n *Node, path string)
	walk = func(n *Node, path string) {
		if n == nil {
			return
		}
		if n.Kind == KindExchange {
			if Distributable(n) {
				p := n.X.Producers
				if p < 1 {
					p = 1
				}
				cuts = append(cuts, FragmentCut{Path: path, Node: n, Producers: p})
			}
			return
		}
		if n.Kind == KindChoosePlan {
			// A choose-plan's alternatives are picked at Open; an exchange
			// inside an alternative that never runs must not be dispatched,
			// so choose-plan subtrees always execute locally.
			return
		}
		for i, in := range n.Inputs {
			walk(in, childPath(path, i))
		}
	}
	walk(root, "")
	return cuts
}

func childPath(path string, i int) string {
	if path == "" {
		return strconv.Itoa(i)
	}
	return path + "." + strconv.Itoa(i)
}

// NodeAtPath navigates a dotted child-index path from the root.
func NodeAtPath(root *Node, path string) (*Node, error) {
	n := root
	if path == "" {
		return n, nil
	}
	for _, part := range strings.Split(path, ".") {
		i, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("plan: bad node path %q", path)
		}
		if n == nil || i < 0 || i >= len(n.Inputs) {
			return nil, fmt.Errorf("plan: node path %q leaves the tree", path)
		}
		n = n.Inputs[i]
	}
	if n == nil {
		return nil, fmt.Errorf("plan: node path %q leaves the tree", path)
	}
	return n, nil
}

// Deterministic reports whether a fragment's output order is a pure
// function of (plan, producer index) — the property the coordinator's
// skip-replay retry depends on: a retried fragment must reproduce the
// records it already delivered, in the same order, for the skip count to
// resume the stream exactly. A subtree that contains a non-inline
// exchange interleaves its own producers' packets nondeterministically,
// so only fragments free of such exchanges may be resumed mid-stream.
func Deterministic(n *Node) bool {
	if n == nil {
		return true
	}
	if n.Kind == KindExchange && n.X != nil && !n.X.Inline {
		return false
	}
	if n.Kind == KindChoosePlan {
		// The decision function consults the catalog's stats at Open: a
		// retry may legitimately pick a different alternative (with a
		// different output order), so mid-stream resume is unsound.
		return false
	}
	for _, in := range n.Inputs {
		if !Deterministic(in) {
			return false
		}
	}
	return true
}

// BuildFragmentProducer instantiates one producer fragment of the cut at
// path: the producer subtree of that exchange, with the producer index
// in scope so partitioned scans resolve to their partition files. This
// is what a volcano-worker executes — the same instantiation the local
// exchange's NewProducer closure performs, minus the exchange itself
// (the wire takes its place).
func BuildFragmentProducer(env *core.Env, cat Catalog, root *Node, path string, producer int, o BuildOptions) (core.Iterator, error) {
	n, err := NodeAtPath(root, path)
	if err != nil {
		return nil, err
	}
	if n.Kind != KindExchange || len(n.Inputs) != 1 {
		return nil, fmt.Errorf("plan: fragment path %q is not an exchange cut", path)
	}
	env = queryEnv(env, o)
	if o.Analyze || o.Metrics.Enabled() {
		// Instrumented fragment: a worker scraping its own registry sees
		// the subtree's volcano_op_next_seconds series like any local
		// query. The Analysis itself stays worker-local.
		it, _, err := buildObserved(env, cat, n.Inputs[0], producer, o)
		return it, err
	}
	return build(&buildCtx{
		env:       env,
		cat:       cat,
		partition: producer,
		tracer:    o.Tracer,
		done:      o.Done,
		queryID:   o.QueryID,
	}, n.Inputs[0])
}

// FragmentSchema determines the record schema crossing the cut at path
// by building a probe instance of producer 0's subtree — the same probe
// buildExchange performs locally. The coordinator needs the schema
// before any worker has dialed in.
func FragmentSchema(env *core.Env, cat Catalog, root *Node, path string) (*record.Schema, error) {
	probe, err := BuildFragmentProducer(env, cat, root, path, 0, BuildOptions{})
	if err != nil {
		return nil, err
	}
	return probe.Schema(), nil
}

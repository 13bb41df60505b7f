package plan

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/core"
)

// Fragment decomposition: the coordinator pass that splits a plan at
// exchange boundaries into shippable fragments.
//
// The exchange operator is the only place a Volcano plan crosses a
// process boundary, so it is the only place a plan can be cut: the
// producer subtree below a distributable exchange becomes a fragment a
// remote worker can execute, and the exchange hub stays on the
// coordinator with each producer receiving one fragment's stream over a
// real wire. A fragment ships by
// value: the coordinator sends the exchange node of the plan it built —
// costed, rewrites and all — as JSON (a Node is plain exported data),
// and the worker decodes it (DecodeFragment) and builds just the
// producer subtree with the producer index in scope, exactly as the
// local exchange's NewProducer closure would have. What runs below the
// cut is the plan the consumer planned; the worker neither parses nor
// costs.

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

func childPath(path string, i int) string {
	if path == "" {
		return strconv.Itoa(i)
	}
	return path + "." + strconv.Itoa(i)
}

// Deterministic reports whether a fragment's output order is a pure
// function of (plan, producer index) — the property the coordinator's
// skip-replay retry depends on: a retried fragment must reproduce the
// records it already delivered, in the same order, for the skip count to
// resume the stream exactly. A subtree that contains a non-inline
// exchange interleaves its own producers' packets nondeterministically,
// so only fragments free of such exchanges may be resumed mid-stream.
// Blocking operators need no case: a hash aggregate (hash distinct too)
// emits its groups in first-seen order, not map order, so over a
// deterministic input a retried fragment that ends in one — the partial
// aggregate of a split — re-emits the groups it already delivered, in
// the same order.
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

// DecodeFragment decodes a shipped exchange node and, since no parser
// saw it, checks what the parser would have: only Node's fields, an
// exchange on top, every node with its kind's inputs, and every
// exchange's producer count and pscan's partition count in 1..MaxDOP.
func DecodeFragment(data []byte) (*Node, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var x *Node
	if err := dec.Decode(&x); err != nil {
		return nil, fmt.Errorf("plan: fragment: %w", err)
	}
	if x == nil || x.Kind != KindExchange {
		return nil, fmt.Errorf("plan: fragment: the top node is not an exchange")
	}
	return x, checkFragment(x)
}

// arity is each node kind's input count (scans: none; choose-plan: build checks).
var arity = map[Kind]int{KindFilter: 1, KindProject: 1, KindSort: 1, KindDistinct: 1, KindAggregate: 1,
	KindExchange: 1, KindMatch: 2, KindNestedLoops: 2, KindDivision: 2}

func checkFragment(n *Node) error {
	switch {
	case n == nil:
		return fmt.Errorf("plan: fragment: missing node")
	case n.Kind != KindChoosePlan && len(n.Inputs) != arity[n.Kind]:
		return fmt.Errorf("plan: fragment: %s with %d inputs", n.Kind, len(n.Inputs))
	case n.Kind == KindExchange && (n.X == nil || n.X.Producers < 1 || n.X.Producers > MaxDOP):
		return fmt.Errorf("plan: fragment: exchange producers out of range 1..%d", MaxDOP)
	case n.Kind == KindPartitionedScan && (n.Partitions < 1 || n.Partitions > MaxDOP):
		return fmt.Errorf("plan: fragment: pscan partition count %d out of range 1..%d", n.Partitions, MaxDOP)
	}
	for _, in := range n.Inputs {
		if err := checkFragment(in); err != nil {
			return err
		}
	}
	return nil
}

// BuildFragmentProducer instantiates one producer fragment of the
// exchange cut x (one input, as Parse and DecodeFragment guarantee): its
// producer subtree, with the producer index in scope so partitioned
// scans resolve to their partition files. This is what a worker node
// (volcano-serve -coordinator) executes — the same instantiation the local exchange's NewProducer
// closure performs, minus the exchange itself (the wire takes its place).
// The build is plain: o.Analyze and o.Tracer are not read.
func BuildFragmentProducer(env *core.Env, cat Catalog, x *Node, producer int, o BuildOptions) (core.Iterator, error) {
	return build(&buildCtx{
		env:       queryEnv(env, o),
		cat:       cat,
		partition: producer,
		done:      o.Done,
		queryID:   o.QueryID,
	}, x.Inputs[0])
}

package plan

import (
	"fmt"
	"regexp"

	"repro/internal/core"
	"repro/internal/record"
	"repro/internal/storage/file"
)

// The costing pass: a Template compiled from plan text describes *what*
// to compute; the knobs the text leaves open — exchange degree of
// parallelism, packet sizes, hash-vs-merge match strategy — are picked
// here from catalog cardinalities. Strategy choices whose best answer
// depends on run-time state are not frozen: they become choose-plan
// nodes whose decision function consults the catalog again at Open
// (dynamic query evaluation plans, Graefe & Ward SIGMOD 1989), so a
// cached plan adapts without being re-costed.
//
// Estimation is deliberately coarse — selectivity defaults, distinct
// counts from ANALYZE when present — because the loop closes elsewhere:
// after execution the server folds each node's *observed* cardinality
// back into the plan-cache entry (CostedPlan.Observed), and a gross
// mis-estimate (MisEstimated) forces exactly one re-cost with the
// observed numbers substituted for the failed estimates.

// DefaultCardinality is assumed for tables the catalog has no record
// counts for.
const DefaultCardinality = 1000

// DefaultHashBuildThreshold is the build-side record count at which the
// choose-plan decision function tips a match from hash (small build
// fits an in-memory table) to merge (sort both sides). Exported so
// tests can exercise both alternatives.
var DefaultHashBuildThreshold int64 = 1 << 16

// MisEstimateFactor is the estimated-vs-observed cardinality ratio
// beyond which a plan-cache entry is re-costed.
const MisEstimateFactor = 4

// smallBuildFactor is the margin the join rewrite demands: moving a join
// below a P-producer exchange builds its hash table P times, which pays
// only when est(build)·P·smallBuildFactor ≤ est(probe).
const smallBuildFactor = 8

// CostedPlan is the result of costing a Template: a derived Template
// whose tree has every open knob filled (safe to build concurrently,
// like any Template), per-node cardinality estimates for EXPLAIN
// ANALYZE, and the node correspondence needed to fold observed
// cardinalities back onto the original template's nodes.
type CostedPlan struct {
	// Template is the costed derivation; its ProducerGoroutines reflect
	// the chosen degree of parallelism, so admission control must weigh
	// this template, not the original.
	Template *Template
	// Estimates maps every node of Template's tree to its estimated
	// output cardinality (pass as BuildOptions.Estimates).
	Estimates map[*Node]int64
	// origin maps costed nodes back to the original template's nodes.
	// Nodes the pass invented (choose-plan wrappers, sorts under a merge
	// alternative) have no origin; a split aggregate's combiner takes the
	// original's, and its partial maps to nil.
	origin map[*Node]*Node
}

// Cost derives a costed plan from the template. cat supplies statistics
// when it implements StatsCatalog (and resolves schemas for selectivity
// refinement); observed, when non-nil, substitutes previously observed
// cardinalities for this pass's estimates, keyed by the *original*
// template's nodes (see Observed) — re-costing with its own observations
// is how a mis-estimated plan converges. The template itself is never
// written; the costed tree is a deep copy.
func (t *Template) Cost(cat Catalog, observed map[*Node]int64) *CostedPlan {
	c := &coster{
		cat:      cat,
		observed: observed,
		est:      map[*Node]int64{},
		origin:   map[*Node]*Node{},
	}
	if sc, ok := cat.(StatsCatalog); ok {
		c.sc = sc
	}
	root := c.clone(t.root)
	root, _ = c.walk(root)
	return &CostedPlan{
		Template:  &Template{root: root, source: t.source, producers: ProducerGoroutines(root)},
		Estimates: c.est,
		origin:    c.origin,
	}
}

// Observed extracts per-node observed cardinalities from a completed
// run's Analysis, keyed by the original template's nodes so they can be
// stored on the plan-cache entry and fed to a later Cost call. Only
// nodes that actually opened contribute — the unchosen alternative of a
// choose-plan reports zeros that mean "never ran", not "empty".
func (c *CostedPlan) Observed(an *Analysis) map[*Node]int64 {
	out := map[*Node]int64{}
	for n, orig := range c.origin {
		st := an.Stats(n)
		if orig == nil || st == nil || st.Opens.Load() == 0 {
			continue
		}
		out[orig] = st.Rows.Load()
	}
	return out
}

// MisEstimated reports the worst estimated-vs-observed cardinality
// mismatch of a completed run, when it exceeds factor (ratios compare
// (x+1)s so zero rows don't divide). Nodes that never opened are
// skipped. A true return is the re-plan trigger.
func (c *CostedPlan) MisEstimated(an *Analysis, factor int64) (worst *Node, est, obs int64, ok bool) {
	var worstRatio int64
	for n, e := range c.Estimates {
		st := an.Stats(n)
		if st == nil || st.Opens.Load() == 0 {
			continue
		}
		o := st.Rows.Load()
		hi, lo := e, o
		if hi < lo {
			hi, lo = lo, hi
		}
		ratio := (hi + 1) / (lo + 1)
		if ratio > factor && ratio > worstRatio {
			worst, est, obs, ok = n, e, o, true
			worstRatio = ratio
		}
	}
	return worst, est, obs, ok
}

type coster struct {
	cat      Catalog
	sc       StatsCatalog
	observed map[*Node]int64 // keyed by original template nodes
	est      map[*Node]int64 // keyed by costed nodes
	origin   map[*Node]*Node // costed -> original
}

// clone deep-copies a plan subtree, recording node correspondence. XOpts
// is copied (the pass mutates knobs); term/key slices are shared — no
// build path writes to them.
func (c *coster) clone(n *Node) *Node {
	if n == nil {
		return nil
	}
	cp := *n
	if n.X != nil {
		x := *n.X
		cp.X = &x
	}
	if n.Choose != nil {
		ch := *n.Choose
		cp.Choose = &ch
	}
	cp.Inputs = make([]*Node, len(n.Inputs))
	for i, in := range n.Inputs {
		cp.Inputs[i] = c.clone(in)
	}
	if orig, ok := c.origin[n]; ok {
		// Cloning an already-cloned node (merge alternatives): keep
		// pointing at the true original.
		c.origin[&cp] = orig
	} else {
		c.origin[&cp] = n
	}
	return &cp
}

// cloneCosted re-clones an already-walked subtree, carrying estimates
// over — used for the second alternative of a choose-plan, which must
// not share node pointers with the first (per-node stats key on them).
func (c *coster) cloneCosted(n *Node) *Node {
	cp := c.clone(n)
	var copyEst func(from, to *Node)
	copyEst = func(from, to *Node) {
		if e, ok := c.est[from]; ok {
			c.est[to] = e
		}
		for i := range from.Inputs {
			copyEst(from.Inputs[i], to.Inputs[i])
		}
	}
	copyEst(n, cp)
	return cp
}

// walk costs a subtree bottom-up, filling open knobs as it returns. The
// returned node replaces n in the parent: a match may come back wrapped
// in a choose-plan, or moved below the exchange that now takes its
// place; an aggregate may come back as the combiner over its own split.
func (c *coster) walk(n *Node) (*Node, int64) {
	for i := range n.Inputs {
		n.Inputs[i], _ = c.walk(n.Inputs[i])
	}
	est := c.estimate(n)
	c.est[n] = est

	switch n.Kind {
	case KindExchange:
		c.fillExchange(n, est)
	case KindAggregate:
		if combine := c.splitAggregate(n, est); combine != nil {
			return combine, est
		}
	case KindMatch:
		if x := c.pushJoin(n); x != nil {
			return x, est
		}
		if choose := c.maybeChoose(n, est); choose != nil {
			return choose, est
		}
	}
	return n, est
}

// Rewrites across the exchange. The paper's exchange parallelises
// whatever subtree sits below it, so work the text put above a gathering
// exchange runs on one consumer unless it moves down. Two fixed rules,
// not a search, move it: a join with a small build side (pushJoin) and
// an aggregate that decomposes (splitAggregate). Both keep the
// exchange's own knobs as written; a knob the text left open is
// re-filled from the new, smaller stream. A worker fleet runs the same
// rewritten tree: the coordinator ships each cut's costed subtree
// (fragment.go), so a partial aggregate or a pushed join runs on the
// workers and only its output crosses the wire.

// gathers reports whether the rewrites may move work below exchange n:
// a distributable cut (forked producers, one consumer, no merge order)
// with no replication (broadcast) and no partitioning function, so what
// arrives is the plain union of the producers' outputs — and any
// operator that distributes over union may run once per producer.
func gathers(n *Node) bool {
	return Distributable(n) && !n.X.Broadcast && len(n.X.HashKeys) == 0 && n.HashTerms == nil && !n.X.UseRange
}

// pushJoin is the first rule: an inner join whose probe input is a
// gathering exchange moves below it when its build input is the same
// for every producer (no pscan, no exchange) and small against the
// probe stream. Each producer then builds its own copy of the table —
// the general form is §4.4's broadcast of the build input — and the
// exchange carries joined records.
func (c *coster) pushJoin(n *Node) *Node {
	if n.MatchOp != core.MatchJoin || n.AllFieldKeys || len(n.Inputs) != 2 {
		return nil
	}
	x, build := n.Inputs[0], n.Inputs[1]
	if !gathers(x) || !sameForEveryProducer(build) {
		return nil
	}
	if c.est[build]*int64(max1(x.X.Producers))*smallBuildFactor > c.est[x.Inputs[0]] {
		return nil
	}
	n.Inputs[0], x.Inputs[0] = x.Inputs[0], n
	if choose := c.maybeChoose(n, c.est[n]); choose != nil {
		x.Inputs[0] = choose
	}
	c.est[x] = c.est[n]
	c.fillExchange(x, c.est[x])
	return x
}

// splitAggregate is the second rule: an aggregate over a gathering
// exchange moves below it unchanged, as a partial aggregate per
// producer, and one combining aggregate above merges the partials —
// counts and sums add up, minima and maxima are taken again. avg does
// not combine from one column and blocks the split. Returns the
// combiner, which replaces n in the parent.
func (c *coster) splitAggregate(n *Node, est int64) *Node {
	if len(n.Inputs) != 1 || !gathers(n.Inputs[0]) {
		return nil
	}
	funcs := make([]core.AggSpec, len(n.Aggs))
	for i, a := range n.Aggs {
		switch a.Func {
		case core.AggCount, core.AggSum:
			funcs[i].Func = core.AggSum
		case core.AggMin, core.AggMax:
			funcs[i].Func = a.Func
		default:
			return nil
		}
	}
	x := n.Inputs[0]
	n.Inputs[0], x.Inputs[0] = x.Inputs[0], n
	combine := &Node{
		Kind: KindAggregate, Inputs: []*Node{x}, Line: n.Line, Stage: n.Stage,
		Aggs: funcs, Combine: true, Algo: n.Algo, AlgoSet: n.AlgoSet,
	}
	// The combiner's output is the original aggregate's, so observations
	// of it correct the original's estimate. The partial's cardinality —
	// the groups of every producer — has no node in the text: it is
	// derived from the combiner's, so a re-cost converges on it too.
	c.origin[combine] = c.origin[n]
	c.origin[n] = nil
	c.est[combine] = est
	c.est[n] = mini(c.est[n.Inputs[0]], est*int64(max1(x.X.Producers)))
	c.est[x] = c.est[n]
	c.fillExchange(x, c.est[x])
	return combine
}

// sameForEveryProducer reports whether a subtree built once per producer
// yields the same rows in each: no partitioned scan (producer g reads
// partition g) and no exchange.
func sameForEveryProducer(n *Node) bool {
	if n.Kind == KindPartitionedScan || n.Kind == KindExchange {
		return false
	}
	for _, in := range n.Inputs {
		if !sameForEveryProducer(in) {
			return false
		}
	}
	return true
}

// fillExchange picks the knobs the plan text left open. The producer
// count is structural, not just a cost choice: each producer builds the
// whole subtree, so a non-partitioned subtree *duplicates* its input
// once per producer — the only correct fan-out is the partition count
// of the pscan below (or 1 when there is none). It runs again when a
// rewrite changes the stream below, so an open knob is judged by the
// text, not by this pass's earlier fill.
func (c *coster) fillExchange(n *Node, est int64) {
	o := n.X
	if o == nil || o.Inline {
		return
	}
	if !o.ProducersSet {
		if parts := partitionsBelow(n.Inputs[0]); parts > 1 {
			o.Producers = parts
		}
	}
	text := o
	if orig := c.origin[n]; orig != nil && orig.X != nil {
		text = orig.X
	}
	if text.PacketSize == 0 {
		// Small results keep latency low with small packets; big streams
		// amortise port overhead with full ones.
		switch {
		case est < 1_000:
			o.PacketSize = 16
		case est < 50_000:
			o.PacketSize = 64
		default:
			o.PacketSize = 255 // the exchange accepts 1..255
		}
	}
}

// partitionsBelow reports the partition count of the pscan feeding a
// producer subtree, or 0: the walk mirrors build-time instantiation,
// descending every input but stopping at nested exchanges (their
// producer counts are their own concern).
func partitionsBelow(n *Node) int {
	if n == nil || n.Kind == KindExchange {
		return 0
	}
	if n.Kind == KindPartitionedScan {
		return n.Partitions
	}
	for _, in := range n.Inputs {
		if p := partitionsBelow(in); p > 0 {
			return p
		}
	}
	return 0
}

// maybeChoose turns an equality match whose algorithm the text left
// open into a choose-plan node: alternative 0 runs the hash match as
// compiled, alternative 1 sorts both sides and merge-matches. The
// decision — build side small enough for an in-memory hash table? — is
// taken at Open against the catalog's stats at that moment.
func (c *coster) maybeChoose(n *Node, est int64) *Node {
	if n.AlgoSet || n.Algo != AlgoHash || n.AllFieldKeys || len(n.Inputs) != 2 {
		return nil
	}
	if n.LeftTerms == nil && n.LeftKey == nil {
		return nil
	}
	table := baseTable(n.Inputs[1])
	if table == "" {
		// No single base table to consult at Open; keep the hash match.
		return nil
	}

	hashAlt := n
	mergeAlt := c.cloneCosted(n)
	mergeAlt.Algo = AlgoSort
	mergeAlt.AlgoSet = true
	for i, in := range mergeAlt.Inputs {
		terms := mergeAlt.LeftTerms
		if i == 1 {
			terms = mergeAlt.RightTerms
		}
		sort := &Node{Kind: KindSort, SortTerms: terms, Inputs: []*Node{in}}
		if terms == nil {
			key := mergeAlt.LeftKey
			if i == 1 {
				key = mergeAlt.RightKey
			}
			sort.SortTerms = nil
			sort.SortBy = sortByKey(key)
		}
		c.est[sort] = c.est[in]
		mergeAlt.Inputs[i] = sort
	}

	choose := &Node{
		Kind:   KindChoosePlan,
		Inputs: []*Node{hashAlt, mergeAlt},
		Choose: &ChooseSpec{
			Table:     table,
			Threshold: DefaultHashBuildThreshold,
			Small:     0,
			Large:     1,
			Default:   0,
			Labels:    []string{"hash", "merge"},
		},
	}
	c.est[choose] = est
	return choose
}

// baseTable resolves the single base table a subtree reads, descending
// record-preserving single-input chains; "" when the subtree is not
// rooted in a plain scan (partitioned and index scans have no single
// catalog entry to consult at Open).
func baseTable(n *Node) string {
	for n != nil {
		switch n.Kind {
		case KindScan:
			return n.Table
		case KindFilter, KindProject, KindSort, KindDistinct, KindExchange:
			if len(n.Inputs) != 1 {
				return ""
			}
			n = n.Inputs[0]
		default:
			return ""
		}
	}
	return ""
}

// eqPredRE matches the simple equality predicates the estimator can
// refine with distinct counts: "field = literal".
var eqPredRE = regexp.MustCompile(`^([A-Za-z_][A-Za-z0-9_]*) = (-?[0-9]+|'[^']*')$`)

// estimate computes a node's output cardinality from its children's
// (already recorded in c.est). An observed cardinality from a previous
// run of the same template overrides the model — that is the feedback
// loop converging.
func (c *coster) estimate(n *Node) int64 {
	if o, ok := c.observed[c.origin[n]]; ok {
		return o
	}
	in := func(i int) int64 {
		if i >= len(n.Inputs) {
			return 0
		}
		return c.est[n.Inputs[i]]
	}
	switch n.Kind {
	case KindScan:
		return c.tableCard(n.Table)
	case KindPartitionedScan:
		var sum int64
		known := false
		for g := 0; g < n.Partitions; g++ {
			if st, ok := c.stats(fmt.Sprintf("%s.%d", n.Table, g)); ok {
				sum += int64(st.Records)
				known = true
			}
		}
		if !known {
			return DefaultCardinality
		}
		return sum
	case KindIndexScan:
		card := c.tableCard(n.Table)
		if n.LoKey != nil || n.HiKey != nil {
			return maxi(card/3, 1)
		}
		return card
	case KindFilter:
		card := in(0)
		if m := eqPredRE.FindStringSubmatch(n.Pred); m != nil && len(n.Inputs) == 1 && n.Inputs[0].Kind == KindScan {
			if d := c.fieldDistinct(n.Inputs[0].Table, m[1]); d > 0 {
				return maxi(card/d, 1)
			}
		}
		return maxi(card/3, 1)
	case KindProject, KindSort, KindExchange:
		return in(0)
	case KindDistinct:
		return maxi(in(0)/2, 1)
	case KindAggregate:
		card := in(0)
		if len(n.GroupTerms) == 1 && n.GroupTerms[0].ByName && len(n.Inputs) == 1 && n.Inputs[0].Kind == KindScan {
			if d := c.fieldDistinct(n.Inputs[0].Table, n.GroupTerms[0].Name); d > 0 {
				return mini(d, card)
			}
		}
		return maxi(card/10, 1)
	case KindMatch:
		l, r := in(0), in(1)
		switch n.MatchOp {
		case core.MatchUnion:
			return l + r
		case core.MatchIntersect:
			return mini(l, r)
		case core.MatchDifference, core.MatchAntiDifference:
			return l
		case core.MatchSemi, core.MatchAnti:
			return maxi(l/2, 1)
		default: // join and outer variants: assume a key/foreign-key match
			return maxi(maxi(l, r), 1)
		}
	case KindNestedLoops:
		return maxi(in(0)*in(1)/3, 1)
	case KindDivision:
		return maxi(in(0)/maxi(in(1), 1), 1)
	case KindChoosePlan:
		return in(0)
	default:
		return in(0)
	}
}

func (c *coster) stats(name string) (file.TableStats, bool) {
	if c.sc == nil {
		return file.TableStats{}, false
	}
	return c.sc.LookupStats(name)
}

func (c *coster) tableCard(name string) int64 {
	if st, ok := c.stats(name); ok {
		return int64(st.Records)
	}
	return DefaultCardinality
}

// fieldDistinct resolves a field name against a table's recorded schema
// and returns its ANALYZEd distinct estimate (0 when unknown).
func (c *coster) fieldDistinct(table, field string) int64 {
	st, ok := c.stats(table)
	if !ok || st.Distinct == nil || c.cat == nil {
		return 0
	}
	f, err := c.cat.Lookup(table)
	if err != nil || f.Schema() == nil {
		return 0
	}
	idx := f.Schema().Index(field)
	if idx < 0 {
		return 0
	}
	return st.DistinctOf(idx)
}

func sortByKey(key record.Key) []record.SortSpec {
	spec := make([]record.SortSpec, len(key))
	for i, f := range key {
		spec[i] = record.SortSpec{Field: f}
	}
	return spec
}

func maxi(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func mini(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

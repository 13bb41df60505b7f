// Package plan provides a declarative layer over the core iterators: plan
// trees that can be built programmatically or parsed from a small plan
// language, validated, explained, and instantiated — including parallel
// instantiation of exchange nodes with producer-indexed subtrees.
package plan

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/record"
	"repro/internal/storage/btree"
	"repro/internal/storage/file"
	"repro/internal/trace"
)

// Kind enumerates plan node types.
type Kind uint8

// Plan node kinds.
const (
	KindScan Kind = iota
	KindPartitionedScan
	KindIndexScan
	KindFilter
	KindProject
	KindSort
	KindDistinct
	KindAggregate
	KindMatch
	KindNestedLoops
	KindDivision
	KindExchange
	KindChoosePlan
)

var kindNames = map[Kind]string{
	KindScan: "scan", KindPartitionedScan: "pscan", KindIndexScan: "iscan",
	KindFilter: "filter", KindProject: "project", KindSort: "sort",
	KindDistinct: "distinct", KindAggregate: "aggregate", KindMatch: "match",
	KindNestedLoops: "nestedloops", KindDivision: "division", KindExchange: "exchange",
	KindChoosePlan: "chooseplan",
}

// String names the kind.
func (k Kind) String() string { return kindNames[k] }

// Algo selects between the two algorithms of binary/grouping operators.
type Algo uint8

// Algorithm choices.
const (
	AlgoHash Algo = iota
	AlgoSort
	AlgoLoops // nested loops (joins only)
)

// String names the algorithm.
func (a Algo) String() string {
	switch a {
	case AlgoSort:
		return "sort"
	case AlgoLoops:
		return "loops"
	default:
		return "hash"
	}
}

// Node is one operator of a plan tree.
type Node struct {
	Kind   Kind
	Inputs []*Node

	// Line and Stage locate the stage of the plan script the node was
	// parsed from (0 for nodes built in code), for positioned build errors.
	Line, Stage int

	// Scan / PartitionedScan / IndexScan.
	Table      string
	Partitions int // PartitionedScan: files "<Table>.<g>"
	// IndexScan: the catalogued index name and optional int-key bounds.
	IndexName string
	LoKey     *int64
	HiKey     *int64

	// Filter / NestedLoops predicate, Project expressions.
	Pred  string
	Exprs []string
	Names []string
	Mode  expr.Mode

	// Sort.
	SortBy []record.SortSpec

	// Aggregate / Distinct / Match / Division keys.
	GroupBy record.Key
	Aggs    []core.AggSpec
	// Combine marks the upper half of an aggregation the cost pass split
	// across an exchange: its input is the partial aggregates' output, so
	// Aggs carries only the combining functions and the build derives
	// every field (group fields first, one column per aggregate, names
	// kept) from the input schema.
	Combine bool
	Algo    Algo
	// AlgoSet records that the plan text named the algorithm explicitly
	// (join hash ..., agg sort ...). The cost pass only overrides
	// strategy choices the author left open.
	AlgoSet  bool
	MatchOp  core.MatchOp
	LeftKey  record.Key
	RightKey record.Key
	QuotKey  record.Key
	DivKey   record.Key
	DivisKey record.Key

	// Unresolved (by-name) variants, filled by the plan-language parser
	// and resolved against input schemas at build time. When a Terms
	// field is non-nil it takes precedence over its indexed counterpart.
	SortTerms  []Term
	GroupTerms []Term
	AggTerms   []Term // parallel to Aggs; Index -1 for count
	LeftTerms  []Term
	RightTerms []Term
	QuotTerms  []Term
	DivTerms   []Term
	DivisTerms []Term
	HashTerms  []Term // exchange hash partition fields
	MergeTerms []Term // exchange merge order
	// AllFieldKeys makes match keys cover every field (set operations).
	AllFieldKeys bool

	// Exchange.
	X *XOpts

	// ChoosePlan: every Inputs[i] is a complete alternative subplan; the
	// decision support function described by Choose runs at Open.
	Choose *ChooseSpec
}

// ChooseSpec describes a choose-plan decision function [Graefe & Ward,
// SIGMOD 1989]: the choice between alternatives is deferred to Open,
// when the catalog's *current* statistics for Table are consulted — the
// plan may be cached and re-run long after it was costed.
type ChooseSpec struct {
	// Table is the base table whose runtime cardinality drives the
	// decision (the build side of a match).
	Table string
	// Threshold: records <= Threshold at Open chooses Small, above it
	// Large; when the catalog has no stats for Table the Default
	// alternative runs.
	Threshold int64
	Small     int
	Large     int
	Default   int
	// Labels name the alternatives for EXPLAIN and metrics ("hash",
	// "merge"); parallel to Inputs.
	Labels []string
}

// XOpts carries the exchange state-record settings at the plan level.
type XOpts struct {
	Producers int
	// ProducersSet records that the plan text fixed the producer count
	// explicitly (producers=N); without it the cost pass may choose.
	ProducersSet bool
	Consumers    int
	PacketSize   int
	FlowControl  bool
	Slack        int
	Broadcast    bool
	Inline       bool
	KeepStreams  bool
	MergeSort    []record.SortSpec // with KeepStreams: merge streams on this order
	Fork         core.ForkScheme
	ForkCost     time.Duration
	// Partition: "" (round robin), or hash keys.
	HashKeys  record.Key
	RangeCol  int
	RangeCuts []record.Value
	UseRange  bool
}

// Catalog resolves table names to files.
type Catalog interface {
	Lookup(name string) (*file.File, error)
}

// IndexCatalog is the optional extension catalogs implement when they can
// also resolve named B+-tree indexes (durable volumes do).
type IndexCatalog interface {
	LookupIndex(name string) (*btree.Tree, error)
}

// StatsCatalog is the optional extension catalogs implement when they
// can report table statistics (record/page counts, per-field distinct
// estimates). The cost pass works from these at planning time, and
// choose-plan decision functions consult them again at Open.
type StatsCatalog interface {
	LookupStats(name string) (file.TableStats, bool)
}

// MapCatalog is a Catalog backed by a map.
type MapCatalog map[string]*file.File

// Lookup implements Catalog.
func (m MapCatalog) Lookup(name string) (*file.File, error) {
	f, ok := m[name]
	if !ok {
		return nil, fmt.Errorf("plan: table %q not found", name)
	}
	return f, nil
}

// LookupStats implements StatsCatalog.
func (m MapCatalog) LookupStats(name string) (file.TableStats, bool) {
	f, ok := m[name]
	if !ok {
		return file.TableStats{}, false
	}
	return f.Stats(), true
}

// VolumeCatalog resolves names against volumes, in order.
type VolumeCatalog []*file.Volume

// Lookup implements Catalog.
func (v VolumeCatalog) Lookup(name string) (*file.File, error) {
	for _, vol := range v {
		if f, err := vol.Open(name); err == nil {
			return f, nil
		}
	}
	return nil, fmt.Errorf("plan: table %q not found on any volume", name)
}

// LookupStats implements StatsCatalog.
func (v VolumeCatalog) LookupStats(name string) (file.TableStats, bool) {
	for _, vol := range v {
		if st, ok := vol.Stats(name); ok {
			return st, true
		}
	}
	return file.TableStats{}, false
}

// LookupIndex implements IndexCatalog.
func (v VolumeCatalog) LookupIndex(name string) (*btree.Tree, error) {
	for _, vol := range v {
		if t, err := vol.OpenIndex(name); err == nil {
			return t, nil
		}
	}
	return nil, fmt.Errorf("plan: index %q not found on any volume", name)
}

// buildCtx carries instantiation state.
type buildCtx struct {
	env       *core.Env
	cat       Catalog
	partition int             // current producer index (for partitioned scans)
	analysis  *Analysis       // non-nil when instrumenting (BuildOptions.Analyze)
	tracer    *trace.Tracer   // non-nil when event tracing (BuildOptions.Tracer)
	done      <-chan struct{} // non-nil: cancellation for exchange producer groups
	queryID   string          // stamped into exchanges for pprof labels
	remote    RemoteBinder    // non-nil: offered distributable exchange nodes
	path      string          // dotted child-index path of the node being built
}

// in derives the context for building child i: path tracking is only
// paid when a remote binder is watching the build.
func (c *buildCtx) in(i int) *buildCtx {
	if c.remote == nil {
		return c
	}
	cc := *c
	cc.path = childPath(c.path, i)
	return &cc
}

// BuildOptions selects the optional build facilities. The zero value is a
// plain Build. All combinations compose: one iterator tree can be
// instrumented, traced and cancellable at once.
type BuildOptions struct {
	// Analyze wraps every operator for EXPLAIN ANALYZE; the returned
	// *Analysis is non-nil. Implied by Tracer.
	Analyze bool
	// Tracer records structured protocol events (nil = off).
	Tracer *trace.Tracer
	// Done, when non-nil, is plumbed into every exchange the build
	// instantiates: closing it makes producer groups abandon their
	// subtrees (core.ExchangeConfig.Done), bounding the work done on
	// behalf of a query nobody is waiting for anymore.
	Done <-chan struct{}
	// BatchSize is the number of records every operator that drains an
	// input itself, and every exchange producer, pulls per NextBatch call
	// (0 = core.DefaultBatchSize; 1 is record-at-a-time). It reaches the
	// operators as the build's Env (core.Env.WithBatchSize), which they
	// read at construction.
	BatchSize int
	// QueryID, when non-empty, stamps the query's identity into every
	// observability surface this build produces: the Analysis carries it
	// (EXPLAIN ANALYZE prints a "query <id>" header, live snapshots join
	// on it), a tracer, when attached, gets a "query <id>" track whose
	// begin/end instants bracket the run, and every exchange tags its
	// producer goroutines with pprof labels (query_id, op) — so traces,
	// logs, profiles and metrics scraped from the same process all join
	// on one key.
	QueryID string
	// Meter, when non-nil, attributes the query's resource usage — every
	// buffer fix the plan's scans and spills perform, and device I/O — to
	// one core.ResourceMeter. The build derives a metered Env and metered
	// file handles once, so the per-event cost at run time is a single
	// atomic add. Exchange traffic is not metered: Analysis.Resources
	// sums it from the hubs. An observed build without one meters into
	// its own, so every Analysis has a resource bill.
	Meter *core.ResourceMeter
	// Estimates carries the cost pass's per-node cardinality estimates
	// (CostedPlan.Estimates) into the Analysis, so EXPLAIN ANALYZE can
	// print estimated next to observed rows. Keys must be nodes of the
	// tree being built. Nil when the plan was not costed.
	Estimates map[*Node]int64
	// Remote, when non-nil, is offered every distributable exchange node
	// (see Distributable) the build reaches on the coordinator-visible
	// spine of the plan — never inside a producer subtree.
	Remote RemoteBinder
}

// RemoteBinder is offered a distributable exchange node during a build,
// with the schema the exchange's probe found. path, the node's dotted
// child-index path from the root ("0.1": the root's first input's second
// input), names the cut within one query. A non-nil producer binds the
// cut: the exchange hub stays in the plan, but producer g is
// producer(g), the receiving end of a subtree that runs elsewhere (on a
// fleet of volcano-serve -coordinator nodes), and closing the exchange's consumer calls stop
// first, so no producer keeps the close handshake waiting on the wire.
// A nil producer declines, and the node builds locally as usual.
type RemoteBinder func(path string, n *Node, schema *record.Schema) (producer func(g int) (core.Iterator, error), stop func(), err error)

// BuildWith instantiates the plan with the given options. The *Analysis
// is non-nil iff the build is observed (Analyze or Tracer).
func BuildWith(env *core.Env, cat Catalog, n *Node, o BuildOptions) (core.Iterator, *Analysis, error) {
	if o.Tracer.Enabled() && o.QueryID != "" {
		// One instant on a query-named track: every event the run emits
		// lands in the same trace file, and the track name carries the ID
		// clients saw in X-Volcano-Query-Id, so a Chrome/Perfetto view
		// joins with the server's slow-query log and response trailers.
		o.Tracer.NewTrack("query "+o.QueryID).Instant("query", "begin")
	}
	// An Analysis collects per-node counters whenever anything will read
	// them: EXPLAIN ANALYZE or a tracer's operator spans.
	if o.Analyze || o.Tracer.Enabled() {
		if o.Meter == nil {
			o.Meter = &core.ResourceMeter{}
		}
		return buildObserved(queryEnv(env, o), cat, n, o)
	}
	it, err := build(&buildCtx{env: queryEnv(env, o), cat: cat, done: o.Done, queryID: o.QueryID, remote: o.Remote}, n)
	return it, nil, err
}

// queryEnv derives, once up front, the Env the operators of one build
// share: CreateTemp (sort/hash/aggregate spills) and every scan handle
// attribute to o.Meter with no per-record overhead beyond the atomic adds
// themselves, and every operator drains its inputs in batches of
// o.BatchSize.
func queryEnv(env *core.Env, o BuildOptions) *core.Env {
	if env == nil {
		return nil
	}
	if o.BatchSize > 0 {
		env = env.WithBatchSize(o.BatchSize)
	}
	return env.WithMeter(o.Meter)
}

// build instantiates one node, instrumenting it when the build is
// observed.
func build(ctx *buildCtx, n *Node) (core.Iterator, error) {
	it, err := buildNode(ctx, n)
	if err != nil || ctx.analysis == nil {
		return it, err
	}
	st := ctx.analysis.stats[n]
	if st == nil {
		return it, nil
	}
	// Parallel instances share the node's OpStats, latency included.
	inst := core.InstrumentWith(it, n.Kind.String(), st)
	if ctx.tracer.Enabled() {
		inst.WithTracer(ctx.tracer)
	}
	return inst, nil
}

func buildNode(ctx *buildCtx, n *Node) (core.Iterator, error) {
	switch n.Kind {
	case KindScan:
		f, err := ctx.cat.Lookup(n.Table)
		if err != nil {
			return nil, err
		}
		return core.NewFileScan(meteredFile(ctx, f))

	case KindPartitionedScan:
		// Instance 0 — the exchange's schema probe, built before any
		// producer — checks the partition count for all of them.
		if ctx.partition == 0 {
			if err := checkPartitions(ctx.cat, n); err != nil {
				return nil, err
			}
		}
		f, err := ctx.cat.Lookup(partitionName(n.Table, ctx.partition))
		if err != nil {
			return nil, err
		}
		return core.NewFileScan(meteredFile(ctx, f))

	case KindIndexScan:
		ic, ok := ctx.cat.(IndexCatalog)
		if !ok {
			return nil, fmt.Errorf("plan: catalog has no index support (iscan %s)", n.IndexName)
		}
		tree, err := ic.LookupIndex(n.IndexName)
		if err != nil {
			return nil, err
		}
		f, err := ctx.cat.Lookup(n.Table)
		if err != nil {
			return nil, err
		}
		var lo, hi []byte
		if n.LoKey != nil {
			lo = btree.EncodeKey(record.Int(*n.LoKey))
		}
		if n.HiKey != nil {
			hi = btree.EncodeKey(record.Int(*n.HiKey))
		}
		// The fetch side of the index scan is metered through the file
		// handle; the B-tree's own page fixes go through the tree's pool
		// reference and stay process-global (the tree is a shared,
		// mutex-guarded structure, not a per-query handle).
		return core.NewIndexScan(tree, meteredFile(ctx, f), lo, hi, true, true)

	case KindFilter:
		in, err := build(ctx.in(0), n.Inputs[0])
		if err != nil {
			return nil, err
		}
		return core.NewFilterExpr(ctx.env, in, n.Pred, n.Mode)

	case KindProject:
		in, err := build(ctx.in(0), n.Inputs[0])
		if err != nil {
			return nil, err
		}
		return core.NewProjectExprs(ctx.env, in, n.Exprs, n.Names, n.Mode)

	case KindSort:
		in, err := build(ctx.in(0), n.Inputs[0])
		if err != nil {
			return nil, err
		}
		spec := n.SortBy
		if n.SortTerms != nil {
			if spec, err = resolveSort(in.Schema(), n.SortTerms); err != nil {
				return nil, err
			}
		}
		return core.NewSort(ctx.env, in, spec), nil

	case KindDistinct:
		in, err := build(ctx.in(0), n.Inputs[0])
		if err != nil {
			return nil, err
		}
		if n.Algo == AlgoSort {
			return core.NewSortDistinct(ctx.env, in)
		}
		return core.NewHashDistinct(ctx.env, in)

	case KindAggregate:
		in, err := build(ctx.in(0), n.Inputs[0])
		if err != nil {
			return nil, err
		}
		groupBy, aggs := n.GroupBy, n.Aggs
		if n.Combine {
			if groupBy, aggs, err = combineSpec(in.Schema(), n.Aggs); err != nil {
				return nil, err
			}
		}
		if n.GroupTerms != nil {
			if groupBy, err = resolveKey(in.Schema(), n.GroupTerms); err != nil {
				return nil, err
			}
		}
		if n.AggTerms != nil {
			aggs = append([]core.AggSpec(nil), n.Aggs...)
			for i, t := range n.AggTerms {
				if aggs[i].Func == core.AggCount {
					continue
				}
				key, err := resolveKey(in.Schema(), []Term{t})
				if err != nil {
					return nil, err
				}
				aggs[i].Field = key[0]
			}
		}
		if n.Algo == AlgoSort {
			spec := make([]record.SortSpec, len(groupBy))
			for i, f := range groupBy {
				spec[i] = record.SortSpec{Field: f}
			}
			return core.NewSortAggregate(ctx.env, core.NewSort(ctx.env, in, spec), groupBy, aggs)
		}
		return core.NewHashAggregate(ctx.env, in, groupBy, aggs)

	case KindMatch:
		l, err := build(ctx.in(0), n.Inputs[0])
		if err != nil {
			return nil, err
		}
		r, err := build(ctx.in(1), n.Inputs[1])
		if err != nil {
			return nil, err
		}
		lk, rk := n.LeftKey, n.RightKey
		if n.AllFieldKeys {
			lk = allFieldsKey(l.Schema())
			rk = allFieldsKey(r.Schema())
		}
		if n.LeftTerms != nil {
			if lk, err = resolveKey(l.Schema(), n.LeftTerms); err != nil {
				return nil, err
			}
		}
		if n.RightTerms != nil {
			if rk, err = resolveKey(r.Schema(), n.RightTerms); err != nil {
				return nil, err
			}
		}
		if n.Algo == AlgoSort {
			return n.positioned(core.NewMergeMatchSorted(ctx.env, n.MatchOp, l, r, lk, rk))
		}
		return n.positioned(core.NewHashMatch(ctx.env, n.MatchOp, l, r, lk, rk))

	case KindNestedLoops:
		l, err := build(ctx.in(0), n.Inputs[0])
		if err != nil {
			return nil, err
		}
		r, err := build(ctx.in(1), n.Inputs[1])
		if err != nil {
			return nil, err
		}
		return core.NewNestedLoops(ctx.env, l, r, n.Pred, n.Mode)

	case KindDivision:
		l, err := build(ctx.in(0), n.Inputs[0])
		if err != nil {
			return nil, err
		}
		r, err := build(ctx.in(1), n.Inputs[1])
		if err != nil {
			return nil, err
		}
		quot, div, divis := n.QuotKey, n.DivKey, n.DivisKey
		if n.QuotTerms != nil {
			if quot, err = resolveKey(l.Schema(), n.QuotTerms); err != nil {
				return nil, err
			}
		}
		if n.DivTerms != nil {
			if div, err = resolveKey(l.Schema(), n.DivTerms); err != nil {
				return nil, err
			}
		}
		if n.DivisTerms != nil {
			if divis, err = resolveKey(r.Schema(), n.DivisTerms); err != nil {
				return nil, err
			}
		}
		if n.Algo == AlgoSort {
			return n.positioned(core.NewSortDivision(ctx.env, l, r, quot, div, divis))
		}
		return n.positioned(core.NewHashDivision(ctx.env, l, r, quot, div, divis))

	case KindExchange:
		return buildExchange(ctx, n)

	case KindChoosePlan:
		if n.Choose == nil || len(n.Inputs) == 0 {
			return nil, fmt.Errorf("plan: chooseplan node without decision spec")
		}
		alts := make([]core.Iterator, len(n.Inputs))
		for i := range n.Inputs {
			alt, err := build(ctx.in(i), n.Inputs[i])
			if err != nil {
				return nil, err
			}
			alts[i] = alt
		}
		spec := n.Choose
		cat := ctx.cat
		cp, err := core.NewChoosePlan(alts, func() (int, error) {
			// The decision runs at Open against the catalog's stats *now*,
			// not the ones the cost pass planned from: a cached plan whose
			// build side has grown past the threshold switches strategy
			// without being re-costed.
			if sc, ok := cat.(StatsCatalog); ok {
				if st, ok := sc.LookupStats(spec.Table); ok {
					if int64(st.Records) <= spec.Threshold {
						return spec.Small, nil
					}
					return spec.Large, nil
				}
			}
			return spec.Default, nil
		})
		if err != nil {
			return nil, err
		}
		if ctx.analysis != nil {
			an, node := ctx.analysis, n
			cp.OnChoose(func(i int) { an.setChoice(node, i) })
		}
		return cp, nil

	default:
		return nil, fmt.Errorf("plan: unknown node kind %d", n.Kind)
	}
}

func partitionName(table string, g int) string { return fmt.Sprintf("%s.%d", table, g) }

// checkPartitions fails a pscan whose partition count is not the one the
// catalog holds: producer g reads "<Table>.<g>", so a count that is too
// small would silently drop the partitions above it.
func checkPartitions(cat Catalog, n *Node) error {
	for g := 0; g < n.Partitions; g++ {
		if _, err := cat.Lookup(partitionName(n.Table, g)); err != nil {
			return n.errorf("pscan %s %d: partition %s is missing", n.Table, n.Partitions, partitionName(n.Table, g))
		}
	}
	if _, err := cat.Lookup(partitionName(n.Table, n.Partitions)); err == nil {
		return n.errorf("pscan %s %d: the table has more than %d partitions (%s exists)",
			n.Table, n.Partitions, n.Partitions, partitionName(n.Table, n.Partitions))
	}
	return nil
}

// errorf builds a build-time error carrying the node's script position.
func (n *Node) errorf(format string, args ...any) error {
	return &ParseError{Line: n.Line, Stage: n.Stage, Op: n.Kind.String(), Err: fmt.Errorf("plan: "+format, args...)}
}

// positioned passes an operator constructor's result through, giving its
// error (a key pair of mixed types, say) the node's script position.
func (n *Node) positioned(it core.Iterator, err error) (core.Iterator, error) {
	if err != nil {
		return nil, n.errorf("%w", err)
	}
	return it, nil
}

// buildExchange instantiates an exchange node: the child subtree template
// is built once per producer with the producer index in scope, so
// partitioned scans resolve to their partition files.
func buildExchange(ctx *buildCtx, n *Node) (core.Iterator, error) {
	o := n.X
	if o == nil {
		return nil, fmt.Errorf("plan: exchange node without options")
	}
	// Producer g scans partition g: a spelled-out producer count other
	// than the partition count reads a subset of the table or asks for a
	// partition that is not there.
	if parts := partitionsBelow(n.Inputs[0]); parts > 0 && o.ProducersSet && o.Producers != parts {
		return nil, n.errorf("exchange producers=%d over a pscan of %d partitions", o.Producers, parts)
	}
	// Determine the schema by building a probe instance of the subtree.
	probe, err := build(&buildCtx{env: ctx.env, cat: ctx.cat, partition: 0}, n.Inputs[0])
	if err != nil {
		return nil, err
	}
	schema := probe.Schema()

	// Resolve parser-supplied field terms against the producer schema into
	// locals: the Node (and its XOpts) may be a cached template shared by
	// concurrent builds, so instantiation must never write to it.
	hashKeys, mergeSort := o.HashKeys, o.MergeSort
	if n.HashTerms != nil {
		if hashKeys, err = resolveKey(schema, n.HashTerms); err != nil {
			return nil, err
		}
	}
	if n.MergeTerms != nil {
		if mergeSort, err = resolveSort(schema, n.MergeTerms); err != nil {
			return nil, err
		}
	}

	cfg := core.ExchangeConfig{
		Schema:      schema,
		Producers:   o.Producers,
		Consumers:   o.Consumers,
		PacketSize:  o.PacketSize,
		FlowControl: o.FlowControl,
		Slack:       o.Slack,
		Broadcast:   o.Broadcast,
		Inline:      o.Inline,
		KeepStreams: o.KeepStreams,
		Fork:        o.Fork,
		ForkCost:    o.ForkCost,
		Tracer:      ctx.tracer,
		Done:        ctx.done,
		BatchSize:   ctx.env.BatchSize(),
		QueryID:     ctx.queryID,
		NewProducer: func(g int) (core.Iterator, error) {
			return build(&buildCtx{env: ctx.env, cat: ctx.cat, partition: g, analysis: ctx.analysis, tracer: ctx.tracer, done: ctx.done, queryID: ctx.queryID}, n.Inputs[0])
		},
	}
	var stop func()
	if ctx.remote != nil && Distributable(n) {
		remote, s, err := ctx.remote(ctx.path, n, schema)
		if err != nil {
			return nil, err
		}
		if remote != nil {
			// A bound cut keeps its hub: each producer receives one remote
			// fragment's stream, and the semaphore, always on, bounds how
			// far the fleet reads ahead of the consumer.
			cfg.NewProducer, cfg.FlowControl, stop = remote, true, s
		}
	}
	if cfg.Consumers == 0 {
		cfg.Consumers = 1
	}
	if cfg.Producers == 0 {
		cfg.Producers = 1
	}
	switch {
	case o.Broadcast:
	case len(hashKeys) > 0:
		cfg.NewPartition = func(int) expr.Partitioner {
			return expr.HashPartition(schema, hashKeys, cfg.Consumers)
		}
	case o.UseRange:
		cfg.NewPartition = func(int) expr.Partitioner {
			return expr.RangePartition(schema, o.RangeCol, o.RangeCuts)
		}
	}
	x, err := core.NewExchange(cfg)
	if err != nil {
		if stop != nil {
			stop()
		}
		return nil, err
	}
	if ctx.analysis != nil {
		ctx.analysis.addExchange(n, x)
	}
	if o.KeepStreams {
		if cfg.Consumers != 1 {
			return nil, fmt.Errorf("plan: merge exchange supports one consumer")
		}
		streams, err := x.ConsumerStreams(0)
		if err != nil {
			return nil, err
		}
		return core.NewMergeSpec(streams, mergeSort)
	}
	if cfg.Consumers != 1 {
		return nil, fmt.Errorf("plan: non-root exchange with %d consumers must be embedded by a parent exchange", cfg.Consumers)
	}
	if stop != nil {
		return stopFirst{x.Consumer(0), stop}, nil
	}
	return x.Consumer(0), nil
}

// stopFirst is a bound cut's consumer: its Close stops the remote
// fragments before the exchange's close handshake waits for them, so a
// producer blocked on a slow or silent worker cannot hold it up.
type stopFirst struct {
	core.Iterator
	stop func()
}

func (s stopFirst) Close() error {
	s.stop()
	return s.Iterator.Close()
}

// meteredFile returns a handle on f attributing its buffer-pool activity
// to the build's meter, or f itself when the build has none.
func meteredFile(ctx *buildCtx, f *file.File) *file.File {
	if m := ctx.env.Meter(); m != nil {
		return f.WithMeter(m)
	}
	return f
}

// combineSpec derives a combining aggregate's keys from its input, the
// partial aggregates' output: the first k fields are the group, and
// field k+i is partial aggregate i, combined by funcs[i] under its own
// name — so the output is column for column the unsplit aggregate's.
func combineSpec(in *record.Schema, funcs []core.AggSpec) (record.Key, []core.AggSpec, error) {
	k := in.NumFields() - len(funcs)
	if k < 0 {
		return nil, nil, fmt.Errorf("plan: combining aggregate over %d fields needs at least %d", in.NumFields(), len(funcs))
	}
	aggs := make([]core.AggSpec, len(funcs))
	for i, a := range funcs {
		aggs[i] = core.AggSpec{Func: a.Func, Field: k + i, Name: in.Field(k + i).Name}
	}
	return allFieldsKey(in)[:k], aggs, nil
}

func allFieldsKey(s *record.Schema) record.Key {
	key := make(record.Key, s.NumFields())
	for i := range key {
		key[i] = i
	}
	return key
}

package plan

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/storage/buffer"
)

// Analysis is the EXPLAIN ANALYZE collector: runtime statistics per plan
// node (rows out, NextBatch calls, open/next/close wall time via core.OpStats),
// exchange port counters (packets, records, flow-control stall and
// consumer wait) per exchange node, and the buffer pool's activity over
// the run. Parallel instances of the same node — the per-producer subtrees
// an exchange instantiates — aggregate into one entry.
type Analysis struct {
	root  *Node
	stats map[*Node]*core.OpStats
	// hists holds one Next-latency histogram per node, shared by the
	// node's parallel instances like its OpStats. When the build was
	// given a metrics registry these are the registry's children
	// (volcano_op_next_seconds), so a live scraper and the analyze
	// report read the same distributions.
	hists map[*Node]*metrics.Histogram

	pool *buffer.Pool
	base buffer.Stats // pool counters at build time; String() shows the delta

	// queryID is the serving-layer identity of the run ("" outside the
	// query service); String() prints it and live snapshots join on it.
	queryID string

	// meter is the query's resource meter (BuildOptions.Meter, nil when
	// the build carried none). String() appends a resources footer and
	// Resources() derives CPU time into it.
	meter *core.ResourceMeter

	// hubs collects the exchange hubs instantiated for each exchange node.
	// Guarded by mu: exchange nodes nested under another exchange are built
	// from producer goroutines at run time.
	mu   sync.Mutex
	hubs map[*Node][]*core.Exchange

	// fragments are live readers of remote-fragment state, registered by
	// the distributed layer when a build binds exchange cuts to workers.
	// Each closure snapshots one fragment's current counters, so String()
	// renders a consistent mid-flight view like every other number here.
	fragments []func() FragmentStat

	// est holds the cost pass's per-node cardinality estimates
	// (BuildOptions.Estimates); nil when the plan was not costed. The
	// report prints est= next to observed rows so mis-estimates are
	// visible at a glance.
	est map[*Node]int64

	// choices records which alternative each choose-plan node picked at
	// Open (guarded by mu: a choose-plan inside a producer subtree
	// decides on a producer goroutine).
	choices map[*Node]int
}

// FragmentStat is one remote fragment's contribution to EXPLAIN
// ANALYZE: which producer of which cut ran where, how much crossed the
// wire, and how many dispatch attempts it took.
type FragmentStat struct {
	Path      string `json:"path"`     // exchange cut (see NodeAtPath)
	Producer  int    `json:"producer"` // producer index within the cut
	Worker    string `json:"worker"`   // worker address the fragment ran on
	Attempts  int    `json:"attempts"` // dispatch attempts (1 = no retry)
	Records   int64  `json:"records"`
	WireBytes int64  `json:"wire_bytes"`
	State     string `json:"state"` // running | done | failed
}

// NodeStats are one node's counters; an alias for the shared core type so
// callers can use either name.
type NodeStats = core.OpStats

// buildObserved performs the instrumented build. The env is expected to
// already carry the meter when o.Meter is set (BuildWith derives it).
// partition pins the producer index for fragment builds (see
// BuildFragmentProducer); whole-plan builds pass 0.
func buildObserved(env *core.Env, cat Catalog, n *Node, partition int, o BuildOptions) (core.Iterator, *Analysis, error) {
	tr, mr := o.Tracer, o.Metrics
	an := &Analysis{
		root:    n,
		stats:   map[*Node]*core.OpStats{},
		hists:   map[*Node]*metrics.Histogram{},
		hubs:    map[*Node][]*core.Exchange{},
		pool:    env.Pool,
		queryID: o.QueryID,
		meter:   env.Meter(),
		est:     o.Estimates,
	}
	if an.pool != nil {
		an.base = an.pool.Stats()
	}
	idx := 0
	var walk func(*Node)
	walk = func(nd *Node) {
		an.stats[nd] = &core.OpStats{}
		if mr.Enabled() {
			// Registry child: visible to live scrapers, labelled by the
			// operator kind and the node's pre-order position so two sorts
			// in one plan stay distinct time series.
			an.hists[nd] = mr.Histogram("volcano_op_next_seconds",
				"Operator Next call latency.", nil,
				metrics.Label{Key: "op", Value: nd.Kind.String()},
				metrics.Label{Key: "node", Value: strconv.Itoa(idx)})
		} else {
			// Standalone: quantiles for the analyze report only.
			an.hists[nd] = metrics.NewHistogram(nil)
		}
		idx++
		for _, in := range nd.Inputs {
			walk(in)
		}
	}
	walk(n)
	it, err := build(&buildCtx{env: env, cat: cat, partition: partition, analysis: an, tracer: tr, done: o.Done, queryID: o.QueryID, remote: o.Remote}, n)
	if err != nil {
		return nil, nil, err
	}
	return it, an, nil
}

// Stats returns the counters recorded for a node.
func (a *Analysis) Stats(n *Node) *core.OpStats { return a.stats[n] }

// setChoice records a choose-plan decision for EXPLAIN ANALYZE.
func (a *Analysis) setChoice(n *Node, i int) {
	a.mu.Lock()
	if a.choices == nil {
		a.choices = map[*Node]int{}
	}
	a.choices[n] = i
	a.mu.Unlock()
}

// Choice reports which alternative the choose-plan node picked at Open
// (-1 until it decides).
func (a *Analysis) Choice(n *Node) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if i, ok := a.choices[n]; ok {
		return i
	}
	return -1
}

// chosenLabel names a choose-plan decision for human-facing output:
// the alternative's label when the spec has one, its index otherwise,
// "undecided" before Open.
func chosenLabel(n *Node, i int) string {
	if i < 0 {
		return "undecided"
	}
	if n.Choose != nil && i < len(n.Choose.Labels) {
		return n.Choose.Labels[i]
	}
	return fmt.Sprintf("%d", i)
}

// Estimate reports the cost pass's cardinality estimate for a node; ok
// is false when the plan was not costed.
func (a *Analysis) Estimate(n *Node) (int64, bool) {
	e, ok := a.est[n]
	return e, ok
}

// addExchange registers a hub instantiated for an exchange node.
func (a *Analysis) addExchange(n *Node, x *core.Exchange) {
	a.mu.Lock()
	a.hubs[n] = append(a.hubs[n], x)
	a.mu.Unlock()
}

// AddFragment registers a live reader for one remote fragment's state.
// The distributed layer calls this once per dispatched producer
// fragment; safe concurrently with rendering.
func (a *Analysis) AddFragment(fn func() FragmentStat) {
	a.mu.Lock()
	a.fragments = append(a.fragments, fn)
	a.mu.Unlock()
}

// Fragments snapshots every registered remote fragment.
func (a *Analysis) Fragments() []FragmentStat {
	a.mu.Lock()
	fns := append([]func() FragmentStat(nil), a.fragments...)
	a.mu.Unlock()
	out := make([]FragmentStat, len(fns))
	for i, fn := range fns {
		out[i] = fn()
	}
	return out
}

// ExchangeStats sums the port counters of every hub instantiated for the
// given exchange node (normally one; zero if the node never ran).
func (a *Analysis) ExchangeStats(n *Node) core.ExchangeStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	var sum core.ExchangeStats
	for _, x := range a.hubs[n] {
		st := x.Stats()
		sum.Packets += st.Packets
		sum.Records += st.Records
		sum.Forks += st.Forks
		sum.PoolHits += st.PoolHits
		sum.PoolMisses += st.PoolMisses
		sum.PoolDiscards += st.PoolDiscards
		sum.SpawnTime += st.SpawnTime
		sum.ProducerStall += st.ProducerStall
		sum.ConsumerWait += st.ConsumerWait
	}
	return sum
}

// PoolStats returns the buffer pool's activity since the build:
// hits/misses, device I/O, and the pin balance (outstanding pins are a
// leak once the query has closed).
func (a *Analysis) PoolStats() buffer.Stats {
	if a.pool == nil {
		return buffer.Stats{}
	}
	return a.pool.Stats().Sub(a.base)
}

// CPUNanos derives the query's CPU time from the operator wall-time
// counters: each node contributes its exclusive time — total open+next+
// close minus the totals of its demand-driven children, which are nested
// inside the parent's calls. An exchange node is the boundary where
// demand-driven nesting stops: its producer subtrees run on their own
// goroutines (their totals count independently as producer-side work),
// and its own time minus the consumer-wait counter is what the consumer
// endpoint actually computed. Negative exclusive times (timer skew on
// sub-microsecond operators) clamp to zero. Safe mid-flight; all inputs
// are atomics.
func (a *Analysis) CPUNanos() int64 {
	var total int64
	var walk func(n *Node)
	walk = func(n *Node) {
		if st := a.stats[n]; st != nil {
			own := st.OpenNanos.Load() + st.NextNanos.Load() + st.CloseNanos.Load()
			if n.Kind == KindExchange {
				own -= int64(a.ExchangeStats(n).ConsumerWait)
			} else {
				for _, in := range n.Inputs {
					if cst := a.stats[in]; cst != nil {
						own -= cst.OpenNanos.Load() + cst.NextNanos.Load() + cst.CloseNanos.Load()
					}
				}
			}
			if own > 0 {
				total += own
			}
		}
		for _, in := range n.Inputs {
			walk(in)
		}
	}
	walk(a.root)
	return total
}

// Resources publishes the derived CPU time into the query's meter and
// returns its snapshot — the one consistent view the trailer, the live
// registry, the slow-query log and the metric families all read. A build
// without a meter returns the zero snapshot.
func (a *Analysis) Resources() core.ResourceSnapshot {
	if a.meter == nil {
		return core.ResourceSnapshot{}
	}
	a.meter.SetCPUNanos(a.CPUNanos())
	return a.meter.Snapshot()
}

// String renders the annotated plan tree: per-operator rows, NextBatch calls
// and open/next/close wall time; packet, stall and wait counters under
// each exchange; and the buffer pool's totals as a footer. All counters
// are atomic, so rendering a still-running query yields a consistent
// mid-flight view.
func (a *Analysis) String() string {
	var sb strings.Builder
	if a.queryID != "" {
		fmt.Fprintf(&sb, "query %s\n", a.queryID)
	}
	a.render(&sb, a.root, 0)
	for _, f := range a.Fragments() {
		fmt.Fprintf(&sb, "fragment path=%q producer=%d worker=%s attempts=%d records=%d wire=%dB state=%s\n",
			f.Path, f.Producer, f.Worker, f.Attempts, f.Records, f.WireBytes, f.State)
	}
	if a.pool != nil {
		st := a.PoolStats()
		balance := "pins balanced"
		if st.CurrentlyFixedHint != 0 {
			balance = fmt.Sprintf("PIN LEAK: %d outstanding", st.CurrentlyFixedHint)
		}
		fmt.Fprintf(&sb, "buffer: fixes=%d hits=%d misses=%d reads=%d writes=%d extra-pins=%d (%s)\n",
			st.Fixes, st.Hits, st.Misses, st.Reads, st.Writes, st.ExtraPins, balance)
	}
	if a.meter != nil {
		// The attributed footer: unlike the pool delta above (process-wide,
		// polluted by concurrent queries), these numbers are this query's
		// own.
		r := a.Resources()
		fmt.Fprintf(&sb, "resources: cpu=%v buf-fixes=%d (%dh/%dm) io=%dB (r%d/w%d) x-packets=%d x-records=%d wire=%dB batch-hw=%dB\n",
			time.Duration(r.CPUSeconds*1e9).Round(time.Microsecond),
			r.BufferFixes, r.BufferHits, r.BufferMisses,
			r.IOBytes(), r.DeviceReads, r.DeviceWrites,
			r.ExchangePackets, r.ExchangeRecords, r.WireBytes, r.BatchHighWater)
	}
	return sb.String()
}

func (a *Analysis) render(sb *strings.Builder, n *Node, depth int) {
	indent := strings.Repeat("  ", depth)
	sb.WriteString(indent)
	sb.WriteString(describe(n))
	if st := a.stats[n]; st != nil {
		fmt.Fprintf(sb, "  [%s", st.Snapshot())
		if e, ok := a.est[n]; ok {
			fmt.Fprintf(sb, " est=%d", e)
		}
		// Latency quantiles once there is a distribution worth reading:
		// a single NextBatch call's p50=p95=p99 adds nothing over next=.
		if s := a.hists[n].Snapshot(); s.Count() > 1 {
			fmt.Fprintf(sb, " p50=%v p95=%v p99=%v",
				s.Quantile(0.50).Round(time.Microsecond),
				s.Quantile(0.95).Round(time.Microsecond),
				s.Quantile(0.99).Round(time.Microsecond))
		}
		sb.WriteString("]")
	}
	sb.WriteByte('\n')
	if n.Kind == KindChoosePlan && n.Choose != nil {
		fmt.Fprintf(sb, "%s  {chosen=%s table=%s threshold=%d}\n",
			indent, chosenLabel(n, a.Choice(n)), n.Choose.Table, n.Choose.Threshold)
	}
	if n.Kind == KindExchange {
		x := a.ExchangeStats(n)
		fmt.Fprintf(sb, "%s  {packets=%d records=%d forks=%d pool=%dh/%dm/%dd stall=%v wait=%v}\n",
			indent, x.Packets, x.Records, x.Forks,
			x.PoolHits, x.PoolMisses, x.PoolDiscards,
			x.ProducerStall.Round(time.Microsecond), x.ConsumerWait.Round(time.Microsecond))
	}
	for _, in := range n.Inputs {
		a.render(sb, in, depth+1)
	}
}

package plan

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
)

// Analysis is the EXPLAIN ANALYZE collector: runtime statistics per plan
// node (rows out, NextBatch calls, open/next/close wall time via core.OpStats),
// exchange port counters (packets, records, flow-control stall and
// consumer wait) per exchange node, and the query's resource bill.
// Parallel instances of the same node — the per-producer subtrees an
// exchange instantiates — aggregate into one entry.
type Analysis struct {
	root  *Node
	stats map[*Node]*core.OpStats

	// queryID is the serving-layer identity of the run ("" outside the
	// query service); String() prints it and live snapshots join on it.
	queryID string

	// meter is the query's resource meter (BuildOptions.Meter, or the
	// build's own). Resources() derives CPU time into it, and the report's
	// resources footer renders its snapshot.
	meter *core.ResourceMeter

	// hubs collects the hubs instantiated for each exchange node, bound
	// cuts included. Guarded by mu: exchange nodes nested under another
	// exchange are built from producer goroutines at run time.
	mu   sync.Mutex
	hubs map[*Node][]*core.Exchange

	// fragments, when set, snapshots the remote fragments of the run's
	// bound cuts (SetFragments). It is read at render time, so String()
	// lists fragments that started after the build.
	fragments func() []FragmentStat

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
	Path      string `json:"path"`     // exchange cut (see RemoteBinder)
	Producer  int    `json:"producer"` // producer index within the cut
	Worker    string `json:"worker"`   // worker address the fragment ran on
	Attempts  int    `json:"attempts"` // dispatch attempts (1 = no retry)
	Records   int64  `json:"records"`
	WireBytes int64  `json:"wire_bytes"`
	State     string `json:"state"` // running | done | failed
}

// buildObserved performs the instrumented build. The env carries the
// query's meter (BuildWith derives it).
func buildObserved(env *core.Env, cat Catalog, n *Node, o BuildOptions) (core.Iterator, *Analysis, error) {
	an := &Analysis{
		root:    n,
		stats:   map[*Node]*core.OpStats{},
		hubs:    map[*Node][]*core.Exchange{},
		queryID: o.QueryID,
		meter:   o.Meter,
		est:     o.Estimates,
	}
	var walk func(*Node)
	walk = func(nd *Node) {
		an.stats[nd] = &core.OpStats{}
		for _, in := range nd.Inputs {
			walk(in)
		}
	}
	walk(n)
	it, err := build(&buildCtx{env: env, cat: cat, analysis: an, tracer: o.Tracer, done: o.Done, queryID: o.QueryID, remote: o.Remote}, n)
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

// SetFragments installs the provider String() lists remote fragments
// from. Call it before the run starts.
func (a *Analysis) SetFragments(fn func() []FragmentStat) { a.fragments = fn }

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
		sum.BatchBytes += st.BatchBytes
		sum.SpawnTime += st.SpawnTime
		sum.ProducerStall += st.ProducerStall
		sum.ConsumerWait += st.ConsumerWait
	}
	return sum
}

// CPUNanos derives the query's CPU time from the operator wall-time
// counters: each node contributes its exclusive time — total open+next+
// close minus the totals of its demand-driven children, which are nested
// inside the parent's calls. An exchange node is the boundary where
// demand-driven nesting stops: its producer subtrees run on their own
// goroutines (their totals count independently as producer-side work),
// and its own time minus the consumer-wait counter is what the consumer
// endpoint actually computed. A cut bound to remote workers has no
// instrumented producers: its producers only receive the wire. Negative
// exclusive times (timer skew on sub-microsecond operators) clamp to
// zero. Safe mid-flight; all inputs are atomics.
func (a *Analysis) CPUNanos() int64 {
	var total int64
	var walk func(n *Node)
	walk = func(n *Node) {
		if st := a.stats[n]; st != nil {
			own := st.OpenNanos.Load() + int64(st.Next.Sum()) + st.CloseNanos.Load()
			if n.Kind == KindExchange {
				own -= int64(a.ExchangeStats(n).ConsumerWait)
			} else {
				for _, in := range n.Inputs {
					if cst := a.stats[in]; cst != nil {
						own -= cst.OpenNanos.Load() + int64(cst.Next.Sum()) + cst.CloseNanos.Load()
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
// returns its snapshot, with the exchange traffic and the producers'
// pull-batch bytes summed over the query's hubs: each fact is counted
// once, where it happens, and derived here. This is the one view the
// trailer, the live registry, the slow-query log and the metric families
// read.
func (a *Analysis) Resources() core.ResourceSnapshot {
	a.meter.SetCPUNanos(a.CPUNanos())
	r := a.meter.Snapshot()
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, hubs := range a.hubs {
		for _, x := range hubs {
			st := x.Stats()
			r.ExchangePackets += st.Packets
			r.ExchangeRecords += st.Records
			r.BatchHighWater += st.BatchBytes
		}
	}
	return r
}

// String renders the report over a fresh Resources snapshot.
func (a *Analysis) String() string { return a.Render(a.Resources()) }

// Render renders the annotated plan tree: per-operator rows, NextBatch
// calls, open/next/close wall time and latency quantiles; packet, stall
// and wait counters under each exchange; and r, the query's resource
// bill, as the footer. A caller that already holds the query's snapshot
// passes it, so the report and its other surfaces show the same numbers.
// All counters are atomic, so rendering a still-running query yields a
// consistent mid-flight view.
func (a *Analysis) Render(r core.ResourceSnapshot) string {
	var sb strings.Builder
	if a.queryID != "" {
		fmt.Fprintf(&sb, "query %s\n", a.queryID)
	}
	a.render(&sb, a.root, 0)
	if a.fragments != nil {
		for _, f := range a.fragments() {
			fmt.Fprintf(&sb, "fragment path=%q producer=%d worker=%s attempts=%d records=%d wire=%dB state=%s\n",
				f.Path, f.Producer, f.Worker, f.Attempts, f.Records, f.WireBytes, f.State)
		}
	}
	fmt.Fprintf(&sb, "resources: cpu=%v buf-fixes=%d (%dh/%dm) io=%dB (r%d/w%d) x-packets=%d x-records=%d wire=%dB batch-hw=%dB\n",
		time.Duration(r.CPUSeconds*1e9).Round(time.Microsecond),
		r.BufferFixes, r.BufferHits, r.BufferMisses,
		r.IOBytes(), r.DeviceReads, r.DeviceWrites,
		r.ExchangePackets, r.ExchangeRecords, r.WireBytes, r.BatchHighWater)
	return sb.String()
}

func (a *Analysis) render(sb *strings.Builder, n *Node, depth int) {
	indent := strings.Repeat("  ", depth)
	sb.WriteString(indent)
	sb.WriteString(describe(n))
	if st := a.stats[n]; st != nil {
		if st.Arena.Load() {
			sb.WriteString(" [arena]")
		}
		fmt.Fprintf(sb, "  [%s", st.Snapshot())
		if e, ok := a.est[n]; ok {
			fmt.Fprintf(sb, " est=%d", e)
		}
		// Latency quantiles once there is a distribution worth reading:
		// a single NextBatch call's p50=p95=p99 adds nothing over next=.
		if s := st.Next.Snapshot(); s.Count() > 1 {
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

package core

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/expr"
	"repro/internal/record"
	"repro/internal/trace"
)

// Exchange is Volcano's exchange module (paper, §4): the one operator that
// encapsulates all parallelism. It is an iterator like any other — its
// consumer endpoints support open, next, close — so it can be inserted at
// any place (or several places) in a query tree. The consumer side is
// demand-driven like the rest of Volcano; the producer side drives its
// subtree eagerly and ships packets of records through a port, i.e. the
// exchange operator performs the translation between demand-driven
// dataflow within a process group and data-driven dataflow between groups.
//
// One Exchange value is the hub shared by a consumer group of size
// Consumers and a producer group of size Producers. Each consumer
// goroutine uses its own endpoint from Consumer(i); each producer g
// runs the subtree built by NewProducer(g).
type Exchange struct {
	cfg    ExchangeConfig
	port   *port
	pool   *packetPool // bounded free list recycling drained packets
	xid    int64       // distinguishes this hub's trace tracks
	start  sync.Once
	err    atomic.Value // first async error (type error)
	closed int32        // consumers that have closed
	lastWG sync.WaitGroup

	// stats
	packetsSent atomic.Int64
	recordsSent atomic.Int64
	forks       atomic.Int64
	spawnTime   atomic.Int64 // nanoseconds spent in fork calls by the master
}

// ForkScheme selects how the master creates the producer group (§4.2).
type ForkScheme uint8

const (
	// ForkCentral has the master fork every producer itself.
	ForkCentral ForkScheme = iota
	// ForkTree uses the propagation-tree scheme: the master forks one
	// slave, then both fork one each, and so on — Gerber's observation
	// that centralised forking is suboptimal for high degrees of
	// parallelism.
	ForkTree
)

// ExchangeConfig is the exchange operator's state record: every variant
// of §4.4 is a run-time switch here.
type ExchangeConfig struct {
	// Schema of the records flowing through.
	Schema *record.Schema
	// Producers is the producer group size.
	Producers int
	// Consumers is the consumer group size.
	Consumers int
	// NewProducer builds producer g's input subtree. With intra-operator
	// parallelism each producer scans its own partition or embeds the
	// corresponding consumer endpoint of a lower exchange.
	NewProducer func(g int) (Iterator, error)

	// NewPartition builds the partitioning support function used by one
	// producer to pick a consumer queue for each record (round-robin,
	// hash or key range; §4.2). nil defaults to per-producer round-robin.
	// Ignored when Consumers == 1 or Broadcast is set.
	NewPartition func(g int) expr.Partitioner

	// Broadcast sends every record to every consumer, pinning it once per
	// consumer instead of copying (§4.4: hash-division, Baru's join).
	Broadcast bool

	// PacketSize is the number of records per packet, 1..255 (default 83,
	// "the standard packet size").
	PacketSize int

	// BatchSize is the number of records each producer pulls from its
	// subtree per NextBatch call (0 = DefaultBatchSize). Each producer
	// allocates one pull batch for its life and routes every refill
	// whole; a consumer endpoint lends a drained packet that fits its
	// caller's batch to that batch — the packet's record slice is the
	// batch — and serves a larger one across calls.
	BatchSize int

	// FlowControl enables the back-pressure semaphore; Slack is its
	// initial value (default 4): how many packets producers may get ahead.
	FlowControl bool
	Slack       int

	// Fork selects the spawn scheme; ForkCost simulates the cost of a
	// UNIX fork call (0 = none) so the central-vs-tree tradeoff can be
	// studied with goroutines, whose spawn cost is otherwise negligible.
	Fork     ForkScheme
	ForkCost time.Duration

	// Inline runs the exchange "in the middle of a process' operator
	// tree" (§4.4): no goroutines are forked; each group member is both
	// producer and consumer, pulling from its own input and routing
	// records until one for its own partition appears. Requires
	// Producers == Consumers. Flow control is obsolete in this mode.
	Inline bool

	// Done, when non-nil, cancels the producer group: once the channel is
	// closed, every producer abandons its subtree between records instead
	// of driving it to end-of-stream. The shutdown handshake still runs —
	// producers deliver their tagged final packet (carrying ErrCanceled)
	// and wait for the consumers' allow-close — so teardown ordering is
	// unchanged; cancellation only bounds how much work an abandoned
	// query's producers do first. nil (the default) disables the
	// per-batch poll entirely.
	Done <-chan struct{}

	// KeepStreams keeps input records separated by producer so that a
	// merge iterator can consume each sorted producer stream individually
	// (§4.4). Use ConsumerStreams to obtain the per-producer streams.
	KeepStreams bool

	// Tracer, when set, records the exchange protocol as structured trace
	// events: producer spawn, packet push/pop (connected by flow arrows),
	// flow-control token waits, end-of-stream tags and the shutdown
	// handshake, one track per goroutine. nil disables tracing at the
	// cost of one branch per event site.
	Tracer *trace.Tracer

	// QueryID, when set, tags every producer goroutine with pprof labels
	// (query_id, op) so CPU profiles segment by query. Labels are applied
	// once per producer spawn — never on the per-record path — and
	// propagate to any goroutines the producer subtree forks itself.
	QueryID string
}

// NewExchange validates the configuration and creates the hub.
func NewExchange(cfg ExchangeConfig) (*Exchange, error) {
	if cfg.Schema == nil {
		return nil, errState("exchange", "nil schema")
	}
	if cfg.Producers < 1 || cfg.Consumers < 1 {
		return nil, errState("exchange", fmt.Sprintf("bad group sizes %d/%d", cfg.Producers, cfg.Consumers))
	}
	if cfg.NewProducer == nil {
		return nil, errState("exchange", "nil NewProducer")
	}
	if cfg.PacketSize == 0 {
		cfg.PacketSize = 83 // 1 KB packets hold 83 NEXT_RECORD structures
	}
	if cfg.PacketSize < 1 || cfg.PacketSize > 255 {
		return nil, errState("exchange", fmt.Sprintf("packet size %d out of range 1..255", cfg.PacketSize))
	}
	if cfg.Slack == 0 {
		cfg.Slack = 4
	}
	if cfg.BatchSize < 1 {
		cfg.BatchSize = DefaultBatchSize
	}
	if cfg.Inline && cfg.Producers != cfg.Consumers {
		return nil, errState("exchange", "inline mode requires equal group sizes")
	}
	if cfg.Inline && cfg.KeepStreams {
		return nil, errState("exchange", "inline mode does not keep per-producer streams")
	}
	if cfg.Broadcast && cfg.NewPartition != nil {
		return nil, errState("exchange", "broadcast and partitioning are mutually exclusive")
	}
	x := &Exchange{cfg: cfg, xid: exchangeSeq.Add(1)}
	// Flow control is meaningless (and a deadlock hazard) in inline mode:
	// a member blocked on the semaphore could never drain its own queue.
	fc := cfg.FlowControl && !cfg.Inline
	x.pool = newPacketPool(cfg.Producers, cfg.Consumers, cfg.Slack, cfg.PacketSize)
	x.port = newPort(cfg.Producers, cfg.Consumers, cfg.KeepStreams, fc, cfg.Slack, x.pool)
	return x, nil
}

// exchangeSeq numbers exchange hubs so the trace tracks of nested or
// sibling exchanges stay distinguishable.
var exchangeSeq atomic.Int64

// ErrCanceled is the error producers report when the exchange's Done
// channel closes while they are still producing. Consumers that keep
// reading after cancellation see it in the final packet.
var ErrCanceled = fmt.Errorf("core: exchange: query canceled")

// canceled reports whether the Done channel has been closed.
func (x *Exchange) canceled() bool {
	select {
	case <-x.cfg.Done:
		return true
	default:
		return false
	}
}

// producerTrack registers producer g's trace track (nil when untraced).
func (x *Exchange) producerTrack(g int) *trace.Track {
	if !x.cfg.Tracer.Enabled() {
		return nil
	}
	return x.cfg.Tracer.NewTrack(fmt.Sprintf("x%d.producer%d", x.xid, g))
}

// consumerTrack registers consumer endpoint i's trace track.
func (x *Exchange) consumerTrack(i int) *trace.Track {
	if !x.cfg.Tracer.Enabled() {
		return nil
	}
	return x.cfg.Tracer.NewTrack(fmt.Sprintf("x%d.consumer%d", x.xid, i))
}

// ExchangeStats reports exchange activity counters: data volume through
// the port, fork effort, and the two blocking-time counters that attribute
// pipeline imbalance (producers throttled by flow control vs consumers
// starved for packets).
type ExchangeStats struct {
	Packets   int64
	Records   int64
	Forks     int64
	SpawnTime time.Duration
	// PoolHits/PoolMisses/PoolDiscards report the packet free list:
	// hits are refills that reused a drained packet, misses fell back to
	// a fresh allocation (cold start, or the window outran the list),
	// discards are returns dropped because the bounded list was full.
	// A warmed-up steady state shows hits growing while misses and
	// discards stay flat — the allocation-free hot path.
	PoolHits     int64
	PoolMisses   int64
	PoolDiscards int64
	// BatchBytes is the pull-batch storage of the forked producers: one
	// batch of BatchSize record slots each, held for the producer's life.
	BatchBytes int64
	// ProducerStall is cumulative time producers spent blocked on the
	// flow-control semaphore ("after a producer has inserted a new packet
	// into the port, it must request the flow control semaphore", §4.1).
	// Zero when flow control is off or consumers keep up.
	ProducerStall time.Duration
	// ConsumerWait is cumulative time consumers spent blocked on an empty
	// queue waiting for the producer group.
	ConsumerWait time.Duration
}

// Stats returns a snapshot of the hub's counters.
func (x *Exchange) Stats() ExchangeStats {
	hits, misses, discards := x.pool.stats()
	forks := x.forks.Load()
	return ExchangeStats{
		Packets:       x.packetsSent.Load(),
		Records:       x.recordsSent.Load(),
		Forks:         forks,
		SpawnTime:     time.Duration(x.spawnTime.Load()),
		PoolHits:      hits,
		PoolMisses:    misses,
		PoolDiscards:  discards,
		BatchBytes:    forks * int64(x.cfg.BatchSize) * batchRecBytes,
		ProducerStall: time.Duration(x.port.stats.producerStall.Load()),
		ConsumerWait:  time.Duration(x.port.stats.consumerWait.Load()),
	}
}

func (x *Exchange) setErr(err error) {
	if err != nil {
		x.err.CompareAndSwap(nil, err)
	}
}

func (x *Exchange) firstErr() error {
	if e, ok := x.err.Load().(error); ok {
		return e
	}
	return nil
}

// Consumer returns consumer endpoint i (an ordinary iterator). Endpoints
// are single-goroutine; each consumer in the group must use its own.
func (x *Exchange) Consumer(i int) Iterator {
	return &xConsumer{x: x, idx: i, producer: -1, share: &consumerShare{left: 1}}
}

// ConsumerStreams returns consumer i's endpoints bound to one producer
// each (KeepStreams mode), suitable as inputs of a Merge. Open/Close of
// the returned endpoints must all happen in consumer i's goroutine; the
// last one closed completes the consumer's shutdown handshake.
func (x *Exchange) ConsumerStreams(i int) ([]Iterator, error) {
	if !x.cfg.KeepStreams {
		return nil, errState("exchange", "ConsumerStreams requires KeepStreams")
	}
	if x.cfg.Inline {
		return nil, errState("exchange", "ConsumerStreams unsupported in inline mode")
	}
	share := &consumerShare{left: x.cfg.Producers}
	out := make([]Iterator, x.cfg.Producers)
	for p := range out {
		out[p] = &xConsumer{x: x, idx: i, producer: p, share: share}
	}
	return out, nil
}

// ensureStarted forks the producer group on first open (the opening
// consumer is the master: "when a query tree is opened, only one process
// is running, which is naturally the master", §4.2).
func (x *Exchange) ensureStarted() {
	x.start.Do(func() {
		if x.cfg.Inline {
			return // inline members run their own producers
		}
		x.port.producersDone.Add(x.cfg.Producers)
		var mtk *trace.Track
		if x.cfg.Tracer.Enabled() {
			mtk = x.cfg.Tracer.NewTrack(fmt.Sprintf("x%d.master", x.xid))
		}
		begin := time.Now()
		if x.cfg.Fork == ForkTree {
			ids := make([]int, x.cfg.Producers)
			for i := range ids {
				ids[i] = i
			}
			x.forkCall(mtk)
			// Labels set on the tree root propagate to every goroutine the
			// tree forks below it.
			go x.labeled(func() { x.spawnTree(ids) })()
		} else { // ForkCentral
			for g := 0; g < x.cfg.Producers; g++ {
				g := g
				x.forkCall(mtk)
				go x.labeled(func() { x.producerLoop(g) })()
			}
		}
		x.spawnTime.Add(int64(time.Since(begin)))
		mtk.SpanAt1("exchange", "spawn", begin, time.Since(begin), "producers", int64(x.cfg.Producers))
	})
}

// labeled wraps a producer entry point with the query's pprof labels
// (query_id, op) via pprof.Do, so /debug/pprof profiles segment producer
// CPU by query. Without a QueryID it returns fn unchanged.
func (x *Exchange) labeled(fn func()) func() {
	if x.cfg.QueryID == "" {
		return fn
	}
	labels := pprof.Labels("query_id", x.cfg.QueryID, "op", "exchange-producer")
	return func() {
		pprof.Do(context.Background(), labels, func(context.Context) { fn() })
	}
}

// forkCall models one fork(2) invocation, recorded as a fork instant on
// the forking goroutine's track (master in the central scheme, interior
// tree nodes in the propagation-tree scheme).
func (x *Exchange) forkCall(tk *trace.Track) {
	x.forks.Add(1)
	tk.Instant("exchange", "fork")
	if x.cfg.ForkCost > 0 {
		time.Sleep(x.cfg.ForkCost)
	}
}

// spawnTree implements the propagation-tree forking scheme: the current
// goroutine repeatedly forks half of its remaining range, then runs the
// first producer itself. Sub-forks are traced on the track of the
// producer this goroutine will become, making the propagation tree
// visible in the timeline.
func (x *Exchange) spawnTree(ids []int) {
	tk := x.producerTrack(ids[0])
	for len(ids) > 1 {
		mid := (len(ids) + 1) / 2
		rest := ids[mid:]
		ids = ids[:mid]
		x.forkCall(tk)
		go x.spawnTree(rest)
	}
	x.runProducer(ids[0], tk)
}

// producerLoop registers the producer's trace track in its own goroutine
// and runs the driver loop.
func (x *Exchange) producerLoop(g int) {
	x.runProducer(g, x.producerTrack(g))
}

// runProducer is the driver part of exchange (§4.1): it opens its
// subtree, exhausts it with NextBatch, routes records into consumer queues in
// packets, flags its last packet to each consumer with an end-of-stream
// tag, waits for permission to close, and closes the subtree.
func (x *Exchange) runProducer(g int, tk *trace.Track) {
	xmProducersLive.Add(1)
	defer xmProducersLive.Add(-1)
	defer x.port.producersDone.Done()
	var begin time.Time
	if tk != nil {
		begin = time.Now()
		tk.Instant1("exchange", "producer-start", "producer", int64(g))
	}
	input, err := x.cfg.NewProducer(g)
	if err == nil && input != nil && !input.Schema().Equal(x.cfg.Schema) {
		err = fmt.Errorf("core: exchange: producer %d schema %s != %s", g, input.Schema(), x.cfg.Schema)
	}
	if err != nil {
		x.setErr(err)
		x.finishProducer(g, nil, nil, tk)
		return
	}
	if err := input.Open(); err != nil {
		x.setErr(err)
		x.finishProducer(g, nil, nil, tk)
		return
	}
	if tk != nil {
		tk.SpanSince("exchange", "open-subtree", begin)
	}
	out := x.newOutbox(g)
	out.tk = tk
	produced := x.produce(g, input, out, tk)
	if tk != nil {
		tk.SpanAt1("exchange", "produce", begin, time.Since(begin), "records", produced)
	}
	x.finishProducer(g, out, input, tk)
}

// produce is the driver loop: the subtree is exhausted through NextBatch
// refills of the producer's one pull batch, and each refill is routed
// wholesale. Cancellation is polled once per batch, which bounds
// post-cancel work to one batch.
func (x *Exchange) produce(g int, input Iterator, out *outbox, tk *trace.Track) (produced int64) {
	b := NewBatch(x.cfg.BatchSize)
	// A refill from an exchange consumer may still hold a lent packet;
	// Reset hands it back to that consumer's free list.
	defer b.Reset()
	// Every producer of the process shares the pull counters, so a run
	// adds to them once: at batch size 1 a per-pull add is a contended
	// atomic per record.
	var pulls int64
	defer func() {
		xmBatchPulls.Add(pulls)
		xmBatchRecords.Add(produced)
	}()
	for {
		if x.cfg.Done != nil && x.canceled() {
			x.setErr(ErrCanceled)
			tk.Instant1("exchange", "canceled", "producer", int64(g))
			return produced
		}
		if err := input.NextBatch(b); err != nil {
			x.setErr(err)
			return produced
		}
		if b.Len() == 0 {
			return produced
		}
		pulls++
		out.routeBatch(b.Recs())
		produced += int64(b.Len())
	}
}

// finishProducer flushes, tags end-of-stream, performs the close
// handshake, and closes the subtree.
func (x *Exchange) finishProducer(g int, out *outbox, input Iterator, tk *trace.Track) {
	if out != nil {
		out.flush()
	} else {
		// Error before the outbox existed: still deliver tagged packets.
		// These travel the same accounting path as outbox.push — bump the
		// per-exchange counter before q.push so ExchangeStats and the
		// process-wide metrics agree on every exit path.
		for c, q := range x.port.queues {
			tk.Instant1("exchange", "eos", "consumer", int64(c))
			p := x.pool.get(g)
			p.eos = true
			p.err = x.firstErr()
			x.packetsSent.Add(1)
			q.push(p, tk)
		}
	}
	// Wait until the consumer allows closing all open files; necessary
	// because files on virtual devices must not be closed before all
	// their records are unpinned (§4.1).
	var wait time.Time
	if tk != nil {
		wait = time.Now()
	}
	<-x.port.allowClose
	if tk != nil {
		tk.SpanSince("exchange", "await-close", wait)
	}
	if input != nil {
		begin := time.Now()
		if err := input.Close(); err != nil {
			x.setErr(err)
		}
		tk.SpanSince("exchange", "close-subtree", begin)
	}
}

// outbox batches one producer's output into per-consumer packets.
type outbox struct {
	x       *Exchange
	g       int
	packets []*packet
	part    expr.Partitioner
	tk      *trace.Track // the owning goroutine's trace track (may be nil)

	// Scratch for routeBatch's whole-batch partition sweep.
	datas [][]byte
	parts []int
	// rr marks the default (round-robin) partitioner: batch routing then
	// deals each batch in contiguous per-consumer chunks — same balance,
	// no per-record partition call. rrNext rotates the first-served
	// consumer across batches so uneven chunks even out.
	rr     bool
	rrNext int
}

func (x *Exchange) newOutbox(g int) *outbox {
	o := &outbox{x: x, g: g, packets: make([]*packet, x.cfg.Consumers)}
	switch {
	case x.cfg.Broadcast || x.cfg.Consumers == 1:
		// no partitioner needed
	case x.cfg.NewPartition != nil:
		o.part = x.cfg.NewPartition(g)
	default:
		o.part = expr.RoundRobin(x.cfg.Consumers)
		o.rr = true
	}
	return o
}

func (o *outbox) add(c int, r Rec) {
	p := o.packets[c]
	if p == nil {
		p = o.x.pool.get(o.g)
		o.packets[c] = p
	}
	p.recs = append(p.recs, r)
	if len(p.recs) >= o.x.cfg.PacketSize {
		o.push(c, false)
	}
}

// push sends consumer c's current packet; a final (eos) one may be empty.
func (o *outbox) push(c int, eos bool) {
	p := o.packets[c]
	if p == nil {
		p = o.x.pool.get(o.g)
	}
	o.packets[c] = nil
	p.eos = eos
	if eos {
		p.err = o.x.firstErr()
	}
	o.x.recordsSent.Add(int64(len(p.recs)))
	o.x.packetsSent.Add(1)
	if o.tk != nil {
		p.flow = o.x.cfg.Tracer.NextFlowID()
		o.tk.FlowOut("packet", "push", p.flow, "records", int64(len(p.recs)))
		if eos {
			o.tk.Instant1("exchange", "eos", "consumer", int64(c))
		}
	}
	o.x.port.queues[c].push(p, o.tk)
}

// routeBatch places a whole pulled batch, whose pins the outbox now
// owns, pushing packets as they fill: a single-consumer outbox appends
// the run into packets wholesale, and a partitioned outbox evaluates the
// partitioning support function over the whole batch in one
// PartitionBatch sweep before distributing. Broadcast adds each record
// to every consumer's packet, pinning it once per additional consumer
// and never copying it (§4.4).
func (o *outbox) routeBatch(recs []Rec) {
	switch {
	case o.x.cfg.Broadcast:
		for _, r := range recs {
			r.Share(len(o.packets) - 1)
			for c := range o.packets {
				o.add(c, r)
			}
		}
	case o.part == nil: // single consumer: bulk append
		o.bulkAppend(0, recs)
	case o.rr:
		// Round robin only balances load; dealing the batch in contiguous
		// chunks (rotating which consumer is served first) preserves the
		// balance without a partition call and packet append per record.
		nc := len(o.packets)
		per, extra := len(recs)/nc, len(recs)%nc
		for i := 0; i < nc; i++ {
			n := per
			if i < extra {
				n++
			}
			o.bulkAppend((o.rrNext+i)%nc, recs[:n])
			recs = recs[n:]
		}
		o.rrNext = (o.rrNext + extra) % nc
	default:
		o.datas = o.datas[:0]
		for _, r := range recs {
			o.datas = append(o.datas, r.Data)
		}
		if cap(o.parts) < len(recs) {
			o.parts = make([]int, len(recs))
		}
		o.parts = o.parts[:len(recs)]
		expr.PartitionBatch(o.part, o.datas, o.parts)
		for i, r := range recs {
			c := o.parts[i]
			if c < 0 || c >= len(o.packets) {
				o.x.setErr(fmt.Errorf("core: exchange: partition function returned %d of %d", c, len(o.packets)))
				r.Unfix()
				continue
			}
			o.add(c, r)
		}
	}
}

// bulkAppend moves a run of records into consumer c's packets wholesale,
// pushing packets as they fill.
func (o *outbox) bulkAppend(c int, recs []Rec) {
	size := o.x.cfg.PacketSize
	for len(recs) > 0 {
		p := o.packets[c]
		if p == nil {
			p = o.x.pool.get(o.g)
			o.packets[c] = p
		}
		n := size - len(p.recs)
		if n > len(recs) {
			n = len(recs)
		}
		p.recs = append(p.recs, recs[:n]...)
		recs = recs[n:]
		if len(p.recs) >= size {
			o.push(c, false)
		}
	}
}

// flush ends the producer's output: every consumer receives its partial
// packet as a tagged final packet.
func (o *outbox) flush() {
	for c := range o.packets {
		o.push(c, true)
	}
}

package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/expr"
	"repro/internal/record"
	"repro/internal/trace"
)

// NetExchange is the shared-nothing variant of the exchange operator —
// the extension the paper announces as under way: "very high degrees of
// parallelism and true high-performance query evaluation requires a
// closely tied network, e.g., a hypercube, of shared-memory machines",
// using the data-exchange paradigm "proven to perform well in a
// shared-nothing database machine" (§4.1, referring to GAMMA).
//
// Unlike Exchange, which passes pinned buffer residents between goroutine
// groups sharing one buffer pool, NetExchange connects groups on
// different "machines" (separate buffer pools and devices): record bytes
// are copied out of the producer machine's buffer, shipped through a
// simulated network link in packets, and materialised into the consumer
// machine's buffer on arrival. The iterator protocol, partitioning,
// broadcast, end-of-stream tagging and shutdown handshake are identical
// to the shared-memory exchange — operators above and below cannot tell
// which kind of boundary they cross.
type NetExchange struct {
	cfg   NetExchangeConfig
	start sync.Once
	err   atomic.Value
	xid   int64

	queues []*netQueue
	pool   *netPacketPool
	// done counts running producers; closed counts consumers whose Close
	// has drained their queue. A producer sends EOS before it closes its
	// subtree, so the consumer whose Close completes the group waits on
	// done: when the last Close returns, every producer-side pin, temp
	// file and goroutine is gone.
	done    sync.WaitGroup
	closed  atomic.Int32
	bytes   atomic.Int64
	packets atomic.Int64
	// Blocking-time counters, the network mirror of the in-process port's
	// stall/wait pair: sendStall is time producers spent blocked on a full
	// link (the bounded channel models the link's transmit window),
	// recvWait is time consumers spent blocked waiting for a packet to
	// arrive.
	sendStall atomic.Int64
	recvWait  atomic.Int64
	// basePID is the first trace pid of this hub's sites (tracing only).
	basePID int
}

// NetExchangeConfig is the state record of the shared-nothing exchange.
type NetExchangeConfig struct {
	Schema    *record.Schema
	Producers int
	Consumers int
	// NewProducer builds producer g's subtree, on whatever machine the
	// closure chooses (its iterators reference that machine's Env).
	NewProducer func(g int) (Iterator, error)
	// ConsumerEnv returns the environment (machine) consumer c
	// materialises received records into.
	ConsumerEnv func(c int) *Env
	// NewPartition, Broadcast, PacketSize as in ExchangeConfig.
	NewPartition func(g int) expr.Partitioner
	Broadcast    bool
	PacketSize   int
	// Latency simulates the interconnect: each packet sleeps this long
	// before it is queued. Zero disables simulation.
	Latency time.Duration
	// BatchSize is the number of records each producer pulls from its
	// subtree per NextBatch call before copying their images onto the
	// wire (0 = DefaultBatchSize).
	BatchSize int
	// Tracer, when set, records the network protocol: wire-send and
	// wire-recv instants with packet sizes, send-stall and recv-wait
	// spans, and flow arrows from send to receive. Producer and consumer
	// tracks live on distinct trace pids — one per site — because each
	// group member models its own machine.
	Tracer *trace.Tracer

	// Meter, when set, attributes wire traffic (packets sent and the
	// bytes of their record images) to one query's resource meter.
	Meter *ResourceMeter
}

// netPacket carries copied record images. The images live in the
// packet's own arena (buf): each record is appended to buf and recs
// holds the per-record windows, so filling a recycled packet performs
// no per-record heap allocation — the arena and the recs slice both
// keep their capacity across lives. Entries stay valid even when a
// later append grows buf: they keep referencing the earlier backing
// array, which still holds their bytes.
type netPacket struct {
	buf  []byte
	recs [][]byte
	eos  bool
	err  error
	flow int64 // trace flow-arrow id (0 when untraced)
}

// add copies one record image into the packet's arena.
func (p *netPacket) add(data []byte) {
	off := len(p.buf)
	p.buf = append(p.buf, data...)
	p.recs = append(p.recs, p.buf[off:len(p.buf):len(p.buf)])
}

// netQueueDepth is the transmit window of the simulated link: how many
// packets may sit in a consumer's channel before the sender blocks.
const netQueueDepth = 8

// netQueue is one consumer's input queue (bounded channel: the bound acts
// as flow control, which a real network link always provides).
type netQueue struct {
	ch  chan *netPacket
	eos int
}

// netPacketPool mirrors the shared-memory exchange's packet free list
// for the wire packets: consumers return drained packets, producers
// refill them. Same ownership rule — once a packet is sent on a queue
// channel the producer must not read it again.
type netPacketPool struct {
	free     chan *netPacket
	hits     atomic.Int64
	misses   atomic.Int64
	discards atomic.Int64
}

func newNetPacketPool(producers, consumers int) *netPacketPool {
	bound := producers*(netQueueDepth+consumers) + consumers
	return &netPacketPool{free: make(chan *netPacket, bound)}
}

func (pp *netPacketPool) get() *netPacket {
	select {
	case p := <-pp.free:
		pp.hits.Add(1)
		xmPoolHits.Add(1)
		return p
	default:
		pp.misses.Add(1)
		xmPoolMisses.Add(1)
		return &netPacket{}
	}
}

func (pp *netPacketPool) put(p *netPacket) {
	if p == nil {
		return
	}
	for i := range p.recs {
		p.recs[i] = nil
	}
	p.recs = p.recs[:0]
	p.buf = p.buf[:0]
	p.eos = false
	p.err = nil
	p.flow = 0
	select {
	case pp.free <- p:
	default:
		pp.discards.Add(1)
		xmPoolDiscards.Add(1)
	}
}

// NewNetExchange validates the configuration.
func NewNetExchange(cfg NetExchangeConfig) (*NetExchange, error) {
	if cfg.Schema == nil {
		return nil, errState("netexchange", "nil schema")
	}
	if cfg.Producers < 1 || cfg.Consumers < 1 {
		return nil, errState("netexchange", "bad group sizes")
	}
	if cfg.NewProducer == nil || cfg.ConsumerEnv == nil {
		return nil, errState("netexchange", "nil NewProducer or ConsumerEnv")
	}
	if cfg.Broadcast && cfg.NewPartition != nil {
		return nil, errState("netexchange", "broadcast and partitioning are mutually exclusive")
	}
	if cfg.PacketSize == 0 {
		cfg.PacketSize = 83
	}
	if cfg.PacketSize < 1 || cfg.PacketSize > 255 {
		return nil, errState("netexchange", "packet size out of range 1..255")
	}
	if cfg.BatchSize < 1 {
		cfg.BatchSize = DefaultBatchSize
	}
	n := &NetExchange{cfg: cfg, xid: exchangeSeq.Add(1)}
	n.pool = newNetPacketPool(cfg.Producers, cfg.Consumers)
	for c := 0; c < cfg.Consumers; c++ {
		n.queues = append(n.queues, &netQueue{ch: make(chan *netPacket, netQueueDepth)})
	}
	if cfg.Tracer.Enabled() {
		// One trace pid per site: every group member models its own
		// machine, so its track gets its own process in the trace viewer.
		n.basePID = int(netSiteSeq.Add(int64(cfg.Producers+cfg.Consumers))) - cfg.Producers - cfg.Consumers + 1
		for g := 0; g < cfg.Producers; g++ {
			cfg.Tracer.NameProcess(n.producerPID(g), fmt.Sprintf("site:netx%d.p%d", n.xid, g))
		}
		for c := 0; c < cfg.Consumers; c++ {
			cfg.Tracer.NameProcess(n.consumerPID(c), fmt.Sprintf("site:netx%d.c%d", n.xid, c))
		}
	}
	return n, nil
}

// netSiteSeq allocates globally unique trace pids for sites so several
// NetExchange hubs in one trace never share a pid.
var netSiteSeq atomic.Int64

func (n *NetExchange) producerPID(g int) int { return n.basePID + g }
func (n *NetExchange) consumerPID(c int) int { return n.basePID + n.cfg.Producers + c }

// Stats reports shipped volume.
func (n *NetExchange) Stats() (packets, bytes int64) {
	return n.packets.Load(), n.bytes.Load()
}

// NetExchangeStats mirrors ExchangeStats for the shared-nothing variant:
// data volume over the wire plus the two blocking-time counters that
// attribute pipeline imbalance across the network boundary.
type NetExchangeStats struct {
	Packets int64
	Bytes   int64
	// PoolHits/PoolMisses/PoolDiscards report the wire-packet free list
	// (see ExchangeStats: same semantics, same steady-state expectation).
	PoolHits     int64
	PoolMisses   int64
	PoolDiscards int64
	// SendStall is cumulative time producers spent blocked on a full
	// link (the transmit window), the network analogue of the in-process
	// flow-control stall.
	SendStall time.Duration
	// RecvWait is cumulative time consumers spent blocked waiting for a
	// packet to arrive.
	RecvWait time.Duration
}

// NetStats returns a snapshot of all counters.
func (n *NetExchange) NetStats() NetExchangeStats {
	return NetExchangeStats{
		Packets:      n.packets.Load(),
		Bytes:        n.bytes.Load(),
		PoolHits:     n.pool.hits.Load(),
		PoolMisses:   n.pool.misses.Load(),
		PoolDiscards: n.pool.discards.Load(),
		SendStall:    time.Duration(n.sendStall.Load()),
		RecvWait:     time.Duration(n.recvWait.Load()),
	}
}

// netErrBox keeps every stored error the same concrete type:
// atomic.Value.CompareAndSwap panics when racing stores carry different
// dynamic types, and errors from different operators rarely share one.
type netErrBox struct{ err error }

func (n *NetExchange) setErr(err error) {
	if err != nil {
		n.err.CompareAndSwap(nil, netErrBox{err})
	}
}

func (n *NetExchange) firstErr() error {
	if b, ok := n.err.Load().(netErrBox); ok {
		return b.err
	}
	return nil
}

func (n *NetExchange) ensureStarted() {
	n.start.Do(func() {
		n.done.Add(n.cfg.Producers)
		for g := 0; g < n.cfg.Producers; g++ {
			go n.producerLoop(g)
		}
	})
}

func (n *NetExchange) producerLoop(g int) {
	xmProducersLive.Add(1)
	defer xmProducersLive.Add(-1)
	defer n.done.Done()
	var tk *trace.Track
	var begin time.Time
	if n.cfg.Tracer.Enabled() {
		tk = n.cfg.Tracer.NewTrackOn(n.producerPID(g), fmt.Sprintf("netx%d.producer%d", n.xid, g))
		begin = time.Now()
		tk.Instant1("exchange", "producer-start", "producer", int64(g))
	}
	input, err := n.cfg.NewProducer(g)
	if err == nil && input != nil && !input.Schema().Equal(n.cfg.Schema) {
		err = fmt.Errorf("core: netexchange: producer %d schema %s != %s", g, input.Schema(), n.cfg.Schema)
	}
	if err != nil {
		n.setErr(err)
		n.broadcastEOS(tk)
		return
	}
	if err := input.Open(); err != nil {
		n.setErr(err)
		n.broadcastEOS(tk)
		return
	}
	out := make([]*netPacket, n.cfg.Consumers)
	var part expr.Partitioner
	if !n.cfg.Broadcast && n.cfg.Consumers > 1 {
		if n.cfg.NewPartition != nil {
			part = n.cfg.NewPartition(g)
		} else {
			part = expr.RoundRobin(n.cfg.Consumers)
		}
	}
	// Once a packet is handed to the queue channel it must not be read
	// again: the consumer may drain and recycle it, and another producer
	// may already be refilling it — so everything send needs (size, eos,
	// trace ids) is taken before the channel send.
	send := func(c int, eos bool) {
		p := out[c]
		out[c] = nil
		if p == nil {
			if !eos {
				return
			}
			p = n.pool.get()
		}
		p.eos = eos
		if eos {
			p.err = n.firstErr()
		}
		size := 0
		for _, r := range p.recs {
			size += len(r)
		}
		if n.cfg.Latency > 0 {
			time.Sleep(n.cfg.Latency)
		}
		n.packets.Add(1)
		n.bytes.Add(int64(size))
		xmNetPackets.Add(1)
		xmNetBytes.Add(int64(size))
		n.cfg.Meter.WireSend(size)
		if tk != nil {
			p.flow = n.cfg.Tracer.NextFlowID()
			tk.FlowOut("wire", "wire-send", p.flow, "bytes", int64(size))
			if eos {
				tk.Instant1("exchange", "eos", "consumer", int64(c))
			}
		}
		// A full link (transmit window) blocks the producer; attribute
		// the stall like the in-process flow-control semaphore does.
		select {
		case n.queues[c].ch <- p:
		default:
			start := time.Now()
			n.queues[c].ch <- p
			d := time.Since(start)
			n.sendStall.Add(int64(d))
			tk.SpanAt("flow", "send-stall", start, d)
		}
	}
	add := func(c int, data []byte) {
		p := out[c]
		if p == nil {
			p = n.pool.get()
			out[c] = p
		}
		p.add(data)
		if len(p.recs) >= n.cfg.PacketSize {
			send(c, false)
		}
	}
	// route copies one record image out of this machine's buffer straight
	// into the outgoing packet's arena — the shared-nothing boundary —
	// then releases the pin; no intermediate per-record allocation.
	route := func(r Rec) {
		switch {
		case n.cfg.Broadcast:
			for c := range out {
				add(c, r.Data)
			}
		case part != nil:
			if c := part(r.Data); c < 0 || c >= len(out) {
				n.setErr(fmt.Errorf("core: netexchange: partition returned %d", c))
			} else {
				add(c, r.Data)
			}
		default:
			add(0, r.Data)
		}
		r.Unfix()
	}
	// Pull a whole batch per call, then route its images; one batch per
	// producer is reused for the entire run.
	b := NewBatch(n.cfg.BatchSize)
	var pulls, records int64 // added to the shared counters once, as in Exchange.produce
	for {
		if nerr := input.NextBatch(b); nerr != nil {
			n.setErr(nerr)
			break
		}
		if b.Len() == 0 {
			break
		}
		pulls++
		records += int64(b.Len())
		for _, r := range b.Recs() {
			route(r)
		}
		// Every pin was released by route; Reset drops the stale
		// references (and returns any lent packet) without unfixing.
		b.Reset()
	}
	xmBatchPulls.Add(pulls)
	xmBatchRecords.Add(records)
	for c := range out {
		send(c, true)
	}
	if tk != nil {
		tk.SpanAt1("exchange", "produce", begin, time.Since(begin), "packets", n.packets.Load())
	}
	if cerr := input.Close(); cerr != nil {
		n.setErr(cerr)
	}
}

func (n *NetExchange) broadcastEOS(tk *trace.Track) {
	for c, q := range n.queues {
		n.packets.Add(1)
		xmNetPackets.Add(1)
		n.cfg.Meter.WireSend(0)
		tk.Instant1("exchange", "eos", "consumer", int64(c))
		p := n.pool.get()
		p.eos = true
		p.err = n.firstErr()
		q.ch <- p
	}
}

// Consumer returns consumer endpoint c: an iterator on the consumer
// machine that materialises arriving records into that machine's buffer.
func (n *NetExchange) Consumer(c int) Iterator {
	return &netConsumer{x: n, idx: c}
}

type netConsumer struct {
	x   *NetExchange
	idx int
	tk  *trace.Track

	w    *ResultWriter
	open bool
	done bool

	// cur is the wire packet being served, pos its next record image: a
	// caller gets at most its batch's Target records per call. pendErr is
	// the error of the packet last used up, reported on the call after its
	// records.
	cur     *netPacket
	pos     int
	pendErr error
}

// Schema implements Iterator.
func (c *netConsumer) Schema() *record.Schema { return c.x.cfg.Schema }

// Open implements Iterator.
func (c *netConsumer) Open() error {
	if c.open {
		return errState("netexchange", "consumer already open")
	}
	if c.idx < 0 || c.idx >= c.x.cfg.Consumers {
		return errState("netexchange", "consumer index out of range")
	}
	env := c.x.cfg.ConsumerEnv(c.idx)
	if env == nil {
		return errState("netexchange", "nil consumer env")
	}
	w, err := env.NewResultWriter("netx", c.x.cfg.Schema)
	if err != nil {
		return err
	}
	c.w = w
	if c.tk == nil && c.x.cfg.Tracer.Enabled() {
		c.tk = c.x.cfg.Tracer.NewTrackOn(c.x.consumerPID(c.idx), fmt.Sprintf("netx%d.consumer%d", c.x.xid, c.idx))
	}
	c.x.ensureStarted()
	c.done = false
	c.cur, c.pos, c.pendErr = nil, 0, nil
	c.open = true
	return nil
}

// NextBatch implements Iterator: the record images of popped wire packets
// are materialised into the consumer machine's buffer, at most b.Target()
// per call — one channel receive and one packet recycle per packet. A
// packet that also carries an error still hands its records out first;
// the error surfaces on the following call.
func (c *netConsumer) NextBatch(b *Batch) error {
	if !c.open {
		return errState("netexchange", "consumer next before open")
	}
	b.Reset()
	q := c.x.queues[c.idx]
	for {
		if p := c.cur; p != nil {
			run := p.recs[c.pos:]
			if n := b.Target(); len(run) > n {
				run = run[:n]
			}
			for _, data := range run {
				r, err := c.w.WriteBytes(data)
				if err != nil {
					// The local write failure wins, but the packet's own error
					// must not vanish with it: park it in the hub so Close
					// still reports the producer-side failure.
					c.x.setErr(p.err)
					c.cur = nil
					c.x.pool.put(p)
					b.Release()
					return err
				}
				b.Append(r)
			}
			if c.pos += len(run); c.pos == len(p.recs) {
				c.cur, c.pendErr = nil, p.err
				c.x.pool.put(p)
			}
			if b.Len() > 0 {
				return nil
			}
		}
		if err := c.pendErr; err != nil {
			c.pendErr = nil
			return err
		}
		if c.done {
			return nil
		}
		var p *netPacket
		select {
		case p = <-q.ch:
		default:
			start := time.Now()
			p = <-q.ch
			d := time.Since(start)
			c.x.recvWait.Add(int64(d))
			c.tk.SpanAt("flow", "recv-wait", start, d)
		}
		c.tk.FlowIn("wire", "wire-recv", p.flow, "records", int64(len(p.recs)))
		if p.eos {
			q.eos++
			c.done = q.eos == c.x.cfg.Producers
		}
		c.cur, c.pos = p, 0
	}
}

// Close implements Iterator.
func (c *netConsumer) Close() error {
	if !c.open {
		return errState("netexchange", "consumer close before open")
	}
	c.open = false
	if c.cur != nil {
		// Images not yet materialised hold no pins; the packet's error
		// counts like a drained one's.
		c.x.setErr(c.cur.err)
		c.x.pool.put(c.cur)
		c.cur = nil
	}
	// Drain so producers never block on the bounded channel, recycling
	// everything that was still in flight.
	q := c.x.queues[c.idx]
	for q.eos < c.x.cfg.Producers {
		p := <-q.ch
		if p.eos {
			q.eos++
		}
		if p.err != nil {
			// A drained error packet is still an error: an early Close
			// (LIMIT, cancellation, a sibling's failure) must not fold a
			// transport failure into end-of-stream silence.
			c.x.setErr(p.err)
		}
		c.x.pool.put(p)
	}
	err := c.w.Dispose()
	c.w = nil
	if int(c.x.closed.Add(1)) == c.x.cfg.Consumers {
		// Every queue is drained, so no producer can be blocked on a send.
		c.x.done.Wait()
	}
	if e := c.x.firstErr(); err == nil && e != nil {
		// Surface producer errors that arrived after the last NextBatch.
		err = e
	}
	return err
}

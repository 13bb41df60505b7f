package core

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// A port is the shared data structure the exchange operator creates for
// synchronisation and data exchange between a producer group and a
// consumer group (paper, §4.1). It holds one queue per consumer; producers
// deposit packets of records into consumer queues, and an optional flow
// control semaphore per queue bounds how far producers may run ahead.

// packet is the unit of data exchange: up to PacketSize NEXT_RECORD
// structures, an end-of-stream tag, and (in this implementation) an error
// slot so producer failures propagate to consumers.
//
// Packets are recycled through the exchange's packetPool: once a packet
// has been inserted into a queue the producer must not read it again —
// the consumer that pops it may drain it and return it to the pool,
// where another producer can immediately claim and refill it.
type packet struct {
	recs     []Rec
	eos      bool
	err      error
	producer int
	// flow is the trace flow-arrow id binding this packet's push event to
	// its pop event; 0 when tracing is off.
	flow int64
}

// portStats aggregates the port's blocking-time counters. Both sides are
// timed only when they actually block — the uncontended paths add a single
// branch — so the numbers attribute pipeline imbalance: producer stall
// means consumers are the bottleneck (flow control throttling, §4.1),
// consumer wait means producers are.
type portStats struct {
	producerStall atomic.Int64 // ns producers spent blocked on the flow-control semaphore
	consumerWait  atomic.Int64 // ns consumers spent blocked waiting for a packet
}

// packetFIFO is a queue of packets that reuses its backing array: pop
// advances a head index instead of re-slicing, and push compacts the
// live window to the front before appending when the array is full.
// Once the array has grown to the queue's high-water mark the
// steady-state push/pop cycle allocates nothing.
type packetFIFO struct {
	buf  []*packet
	head int
}

func (f *packetFIFO) empty() bool { return f.head == len(f.buf) }

func (f *packetFIFO) push(p *packet) {
	if f.head > 0 && len(f.buf) == cap(f.buf) {
		n := copy(f.buf, f.buf[f.head:])
		for i := n; i < len(f.buf); i++ {
			f.buf[i] = nil
		}
		f.buf = f.buf[:n]
		f.head = 0
	}
	f.buf = append(f.buf, p)
}

func (f *packetFIFO) pop() *packet {
	if f.empty() {
		return nil
	}
	p := f.buf[f.head]
	f.buf[f.head] = nil
	f.head++
	if f.head == len(f.buf) {
		f.buf = f.buf[:0]
		f.head = 0
	}
	return p
}

// queue is one consumer's input queue. In merge mode (keepStreams) the
// packets are kept separated by producer so a merge iterator can consume
// each sorted stream individually (paper, §4.4).
type queue struct {
	mu   sync.Mutex
	cond *sync.Cond
	ps   *portStats
	pool *packetPool

	shared packetFIFO   // normal mode: one FIFO
	byProd []packetFIFO // merge mode: one FIFO per producer

	eosSeen   int    // producers that have delivered their final packet
	eosByProd []bool // merge mode: per-producer end-of-stream
	closed    bool   // consumer abandoned the queue

	// fc is the flow control semaphore: producers take a token after each
	// insertion, consumers return one after each removal. Initialised with
	// `slack` tokens; nil when flow control is disabled.
	fc chan struct{}
}

func newQueue(producers int, keepStreams bool, flowControl bool, slack int, ps *portStats, pool *packetPool) *queue {
	q := &queue{ps: ps, pool: pool}
	q.cond = sync.NewCond(&q.mu)
	if keepStreams {
		q.byProd = make([]packetFIFO, producers)
		q.eosByProd = make([]bool, producers)
	}
	if flowControl {
		if slack < 1 {
			slack = 1
		}
		q.fc = make(chan struct{}, slack)
		for i := 0; i < slack; i++ {
			q.fc <- struct{}{}
		}
	}
	return q
}

// push inserts a packet and signals the consumer; with flow control it
// then acquires a semaphore token, blocking if the producers are already
// `slack` packets ahead ("after a producer has inserted a new packet into
// the port, it must request the flow control semaphore", §4.1). tk is the
// pushing producer's trace track (nil when tracing is off).
//
// The packet's fields are snapshotted before it becomes visible to the
// consumer: the instant the queue mutex drops, the consumer may pop,
// drain, and recycle the packet into the free list, where another
// producer can claim and refill it — so reading p.eos or p.recs after
// insertion would race with its next life.
func (q *queue) push(p *packet, tk *trace.Track) {
	eos := p.eos
	nrecs := int64(len(p.recs))
	q.mu.Lock()
	if q.closed {
		// Consumer is gone: release the records and recycle the packet
		// instead of queueing it. The packet was still pushed through the
		// port, so the process-wide counters record it (keeping them
		// consistent with the per-exchange packetsSent/recordsSent the
		// outbox already counted), but it never contributes queue depth.
		if eos {
			q.noteEOS(p)
			q.cond.Broadcast()
		}
		q.mu.Unlock()
		for _, r := range p.recs {
			r.Unfix()
		}
		q.pool.put(p)
		xmPackets.Add(1)
		xmRecords.Add(nrecs)
		return
	}
	if q.byProd != nil {
		q.byProd[p.producer].push(p)
	} else {
		q.shared.push(p)
	}
	if eos {
		q.noteEOS(p)
	}
	q.cond.Broadcast()
	// Bump the depth gauge before releasing the mutex: a consumer can pop
	// this packet (and decrement) the instant the lock drops, and the gauge
	// must never transiently read negative on a scrape.
	xmQueueDepth.Add(1)
	q.mu.Unlock()
	xmPackets.Add(1)
	xmRecords.Add(nrecs)
	if q.fc != nil && !eos {
		q.takeToken(tk)
	}
}

// takeToken acquires one flow-control token, recording the stall time if
// the producer group is already `slack` packets ahead. A stall that
// actually blocks is also recorded as a token-wait span on the producer's
// trace track; the uncontended path emits nothing.
func (q *queue) takeToken(tk *trace.Track) {
	select {
	case <-q.fc:
	default:
		start := time.Now()
		<-q.fc
		d := time.Since(start)
		q.ps.producerStall.Add(int64(d))
		xmTokenWaits.Add(1)
		xmProducerStallNs.Add(int64(d))
		tk.SpanAt("flow", "token-wait", start, d)
	}
}

// waitLocked blocks on the condition variable until ready() holds,
// charging the blocked time to the consumer-wait counter and — when it
// actually blocks — recording a consumer-wait span on the caller's trace
// track. Callers hold q.mu; ready is evaluated under it.
func (q *queue) waitLocked(tk *trace.Track, ready func() bool) {
	if ready() {
		return
	}
	start := time.Now()
	for !ready() {
		q.cond.Wait()
	}
	d := time.Since(start)
	q.ps.consumerWait.Add(int64(d))
	xmConsumerWaitNs.Add(int64(d))
	tk.SpanAt("flow", "consumer-wait", start, d)
}

// noteEOS records an end-of-stream tag. Callers hold q.mu.
func (q *queue) noteEOS(p *packet) {
	q.eosSeen++
	if q.eosByProd != nil {
		q.eosByProd[p.producer] = true
	}
}

// pop removes the next packet from the shared FIFO, blocking until one is
// available or all producers have delivered end-of-stream and the queue is
// empty (returns nil).
func (q *queue) pop(producers int, tk *trace.Track) *packet {
	q.mu.Lock()
	q.waitLocked(tk, func() bool { return !q.shared.empty() || q.eosSeen >= producers })
	p := q.shared.pop()
	q.mu.Unlock()
	if p != nil {
		xmQueueDepth.Add(-1)
		if q.fc != nil && !p.eos {
			q.fc <- struct{}{}
		}
	}
	return p
}

// popFrom removes the next packet of one producer's stream (merge mode).
// Returns nil when that stream has delivered end-of-stream and is empty.
func (q *queue) popFrom(producer int, tk *trace.Track) *packet {
	q.mu.Lock()
	q.waitLocked(tk, func() bool { return !q.byProd[producer].empty() || q.eosByProd[producer] })
	p := q.byProd[producer].pop()
	q.mu.Unlock()
	if p != nil {
		xmQueueDepth.Add(-1)
		if q.fc != nil && !p.eos {
			q.fc <- struct{}{}
		}
	}
	return p
}

// tryPop removes the next available packet without blocking (inline mode).
func (q *queue) tryPop() *packet {
	q.mu.Lock()
	var p *packet
	if q.byProd != nil {
		for i := range q.byProd {
			if !q.byProd[i].empty() {
				p = q.byProd[i].pop()
				break
			}
		}
	} else {
		p = q.shared.pop()
	}
	q.mu.Unlock()
	if p != nil {
		xmQueueDepth.Add(-1)
		if q.fc != nil && !p.eos {
			q.fc <- struct{}{}
		}
	}
	return p
}

// drain unfixes everything still queued (consumer shutdown), recycles the
// packets, and marks the queue closed so producers stop queueing into it.
func (q *queue) drain() {
	q.mu.Lock()
	q.closed = true
	var all []*packet
	for !q.shared.empty() {
		all = append(all, q.shared.pop())
	}
	for i := range q.byProd {
		for !q.byProd[i].empty() {
			all = append(all, q.byProd[i].pop())
		}
	}
	q.mu.Unlock()
	xmQueueDepth.Add(-int64(len(all)))
	for _, p := range all {
		for _, r := range p.recs {
			r.Unfix()
		}
		eos := p.eos
		q.pool.put(p)
		if q.fc != nil && !eos {
			q.fc <- struct{}{}
		}
	}
}

// port ties the queues together with the shutdown handshake.
type port struct {
	queues []*queue
	stats  portStats

	// allowClose is the semaphore the (last) consumer releases to permit
	// producers to shut down; producers wait on it after their final
	// packet ("waits until the consumer allows closing all open files",
	// §4.1 — the delay protects records of virtual files still pinned).
	allowClose chan struct{}

	// producersDone is the acknowledgement the consumer waits for before
	// returning from close.
	producersDone sync.WaitGroup
}

func newPort(producers, consumers int, keepStreams, flowControl bool, slack int, pool *packetPool) *port {
	pt := &port{allowClose: make(chan struct{})}
	for i := 0; i < consumers; i++ {
		pt.queues = append(pt.queues, newQueue(producers, keepStreams, flowControl, slack, &pt.stats, pool))
	}
	return pt
}

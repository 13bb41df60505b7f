package core

import (
	"sync/atomic"
	"time"

	"repro/internal/record"
	"repro/internal/storage/file"
	"repro/internal/trace"
)

// consumerClosed records one endpoint's shutdown. The last consumer to
// close releases the semaphore that permits producers to shut down and —
// in fork mode — waits for their acknowledgement (§4.1/§4.3: orderly,
// self-scheduling shutdown of the whole tree). tk is the closing
// endpoint's trace track: the allow-close release and the wait for the
// producers' acknowledgement are the two halves of the shutdown
// handshake made visible in the timeline.
func (x *Exchange) consumerClosed(tk *trace.Track) error {
	n := atomic.AddInt32(&x.closed, 1)
	if int(n) == x.cfg.Consumers {
		tk.Instant("exchange", "allow-close")
		close(x.port.allowClose)
		if !x.cfg.Inline {
			var begin time.Time
			if tk != nil {
				begin = time.Now()
			}
			x.port.producersDone.Wait()
			if tk != nil {
				tk.SpanSince("exchange", "await-producers", begin)
			}
		}
	}
	return x.firstErr()
}

// packetCursor is an endpoint's hold on the packet it is serving. A
// packet that fits the caller's batch is lent to it wholesale — no
// per-record repack; the packet returns to the free list when the
// caller's next call (or Reset) recycles the batch. A larger packet stays
// here and goes out Target records per call, so a caller at batch size 1
// receives one record per call above an exchange as everywhere else. The
// error a packet carries surfaces on the call after its last records.
type packetCursor struct {
	pool *packetPool
	cur  *packet
	pos  int
	err  error
}

// hold makes p the packet to serve next.
func (pc *packetCursor) hold(p *packet) { pc.cur, pc.pos = p, 0 }

// serve fills the reset batch b from the held packet and reports whether
// b now holds records. When it does not, it returns (and clears) the error
// of the packet last used up.
func (pc *packetCursor) serve(b *Batch) (bool, error) {
	if p := pc.cur; p != nil {
		rest := p.recs[pc.pos:]
		if n := b.Target(); len(rest) > n {
			for _, r := range rest[:n] {
				b.Append(r)
			}
			pc.pos += n
			return true, nil
		}
		pc.cur, pc.pos, pc.err = nil, 0, p.err
		switch {
		case len(rest) == len(p.recs) && len(rest) > 0:
			b.lend(p, pc.pool)
			return true, nil
		case len(rest) > 0:
			for _, r := range rest {
				b.Append(r)
			}
			pc.pool.put(p)
			return true, nil
		}
		pc.pool.put(p)
	}
	err := pc.err
	pc.err = nil
	return false, err
}

// release unfixes the records of the held packet not yet served and
// returns it to the free list: an endpoint closed before end of stream.
func (pc *packetCursor) release() {
	if p := pc.cur; p != nil {
		file.UnfixBatch(p.recs[pc.pos:])
		pc.pool.put(p)
	}
	pc.cur, pc.pos, pc.err = nil, 0, nil
}

// xConsumer is one consumer endpoint of an exchange. In fork mode it is
// "a normal iterator, the only difference ... is that it receives its
// input via inter-process communication" (§4.1). In inline mode (§4.4) it
// additionally drives its own producer subtree between queue polls. An
// endpoint from ConsumerStreams is bound to one producer and serves only
// that producer's stream of the consumer's queue, because "the merge
// iterator requires to distinguish the input records by their producer"
// (§4.4).
type xConsumer struct {
	x        *Exchange
	idx      int
	producer int // the bound producer, or -1 for the whole consumer
	share    *consumerShare
	tk       *trace.Track

	pc   packetCursor
	open bool
	done bool

	// Inline mode state: the member's own producer subtree, the batch it
	// pulls that subtree through, and the outbox it routes from.
	input     Iterator
	inb       *Batch
	out       *outbox
	inputDone bool
}

// consumerShare is what the endpoints of one consumer share: its trace
// track and how many of them have yet to close. A whole-consumer
// endpoint has one to itself. The bound endpoints of ConsumerStreams
// share one, and all of them open and close in the consumer's goroutine,
// so it needs no lock.
type consumerShare struct {
	tk   *trace.Track
	left int
}

// Schema implements Iterator.
func (c *xConsumer) Schema() *record.Schema { return c.x.cfg.Schema }

// Open implements Iterator.
func (c *xConsumer) Open() error {
	if c.open {
		return errState("exchange", "consumer already open")
	}
	if c.idx < 0 || c.idx >= c.x.cfg.Consumers {
		return errState("exchange", "consumer index out of range")
	}
	if c.share.tk == nil {
		c.share.tk = c.x.consumerTrack(c.idx)
	}
	c.tk = c.share.tk
	if c.x.cfg.Inline {
		input, err := c.x.cfg.NewProducer(c.idx)
		if err != nil {
			return err
		}
		if err := input.Open(); err != nil {
			return err
		}
		c.input = input
		c.inb = NewBatch(c.x.cfg.BatchSize)
		c.out = c.x.newOutbox(c.idx)
		c.out.tk = c.tk
		c.inputDone = false
	} else {
		// The first consumer to open acts as the master and forks the
		// producer group.
		c.x.ensureStarted()
	}
	c.pc = packetCursor{pool: c.x.pool}
	c.done = false
	c.open = true
	return nil
}

// NextBatch implements Iterator: the records of popped packets go out
// through the endpoint's packetCursor, at most b.Target() per call.
func (c *xConsumer) NextBatch(b *Batch) error {
	if !c.open {
		return errState("exchange", "consumer next before open")
	}
	b.Reset()
	q := c.x.port.queues[c.idx]
	for {
		if got, err := c.pc.serve(b); got || err != nil {
			return err
		}
		if c.done {
			return nil
		}
		var p *packet
		switch {
		case c.x.cfg.Inline:
			var err error
			if p, err = c.inlineStep(); err != nil {
				return err
			}
			if p == nil {
				continue
			}
		case c.producer >= 0:
			p = q.popFrom(c.producer, c.tk)
		default:
			p = q.pop(c.x.cfg.Producers, c.tk)
		}
		if p == nil {
			c.done = true
			return c.x.firstErr()
		}
		c.tk.FlowIn("packet", "pop", p.flow, "records", int64(len(p.recs)))
		c.pc.hold(p)
	}
}

// inlineStep makes progress in the no-fork variant: take whatever the
// queue already holds; otherwise request a batch from our own input tree
// and route it, "possibly sending them off to other processes in the
// group, until a record for its own partition is found" (§4.4); once our
// input is exhausted, block on the queue for the remaining peers. A nil
// packet with a nil error means records were routed and the caller
// should look again.
func (c *xConsumer) inlineStep() (*packet, error) {
	q := c.x.port.queues[c.idx]
	if p := q.tryPop(); p != nil {
		return p, nil
	}
	if !c.inputDone {
		err := c.input.NextBatch(c.inb)
		if err != nil || c.inb.Len() == 0 {
			c.x.setErr(err)
			c.out.flush()
			c.inputDone = true
			return nil, err
		}
		// The outbox now owns the pins; the batch only drops references.
		c.out.routeBatch(c.inb.Recs())
		c.inb.Reset()
		return nil, nil
	}
	p := q.pop(c.x.cfg.Producers, c.tk)
	if p == nil {
		c.done = true
		return nil, c.x.firstErr()
	}
	return p, nil
}

// Close implements Iterator. Of the endpoints of one consumer, the last
// to close abandons the queue and completes the consumer's shutdown.
func (c *xConsumer) Close() error {
	if !c.open {
		return errState("exchange", "consumer close before open")
	}
	c.open = false
	c.pc.release()
	if c.x.cfg.Inline {
		if !c.inputDone {
			// Cancelled early: our peers still need our end-of-stream tags.
			c.out.flush()
			c.inputDone = true
		}
		c.x.port.queues[c.idx].drain()
		err := c.x.consumerClosed(c.tk)
		// Wait until the whole group may close, then shut our subtree
		// down: records we produced may still be pinned by peers.
		var begin time.Time
		if c.tk != nil {
			begin = time.Now()
		}
		<-c.x.port.allowClose
		if c.tk != nil {
			c.tk.SpanSince("exchange", "await-close", begin)
		}
		if cerr := c.input.Close(); err == nil {
			err = cerr
		}
		c.input = nil
		return err
	}
	if c.share.left--; c.share.left > 0 {
		return nil
	}
	// Fork mode: make sure producers are running (an endpoint could be
	// closed before any NextBatch), then abandon the queue and hand over
	// to the shutdown handshake.
	c.x.ensureStarted()
	c.x.port.queues[c.idx].drain()
	return c.x.consumerClosed(c.tk)
}

package core

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/record"
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

// xConsumer is one consumer endpoint of an exchange. In fork mode it is
// "a normal iterator, the only difference ... is that it receives its
// input via inter-process communication" (§4.1). In inline mode (§4.4) it
// additionally drives its own producer subtree between queue polls.
type xConsumer struct {
	x   *Exchange
	idx int
	tk  *trace.Track

	cur  *packet
	pos  int
	open bool
	done bool

	// pendErr is an error carried by a packet whose records were lent to
	// a batch: the records go out first, the error surfaces on the next
	// NextBatch call, mirroring the row path's records-then-error order.
	pendErr error

	// Inline mode state.
	input     Iterator
	out       *outbox
	inputDone bool
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
	if c.tk == nil {
		c.tk = c.x.consumerTrack(c.idx)
	}
	if c.x.cfg.Inline {
		input, err := c.x.cfg.NewProducer(c.idx)
		if err != nil {
			return err
		}
		if err := input.Open(); err != nil {
			return err
		}
		c.input = input
		c.out = c.x.newOutbox(c.idx)
		c.out.tk = c.tk
		c.inputDone = false
	} else {
		// The first consumer to open acts as the master and forks the
		// producer group.
		c.x.ensureStarted()
	}
	c.cur, c.pos, c.done = nil, 0, false
	c.pendErr = nil
	c.open = true
	return nil
}

// NextBatch implements BatchIterator natively: a popped packet's record
// slice is lent to the caller's batch wholesale — no per-record repack —
// and the packet returns to the free list when the caller's next call
// (or Reset) recycles the batch. A packet that also carries an error
// still hands its records out first; the error surfaces on the following
// call, as in the row path.
func (c *xConsumer) NextBatch(b *Batch) error {
	if !c.open {
		return errState("exchange", "consumer next before open")
	}
	b.Reset()
	if c.pendErr != nil {
		err := c.pendErr
		c.pendErr = nil
		return err
	}
	for {
		if p := c.cur; p != nil {
			pos := c.pos
			c.cur, c.pos = nil, 0
			if p.err != nil {
				c.pendErr = p.err
			}
			if pos == 0 && len(p.recs) > 0 {
				b.lend(p, c.x.pool)
				return nil
			}
			if pos < len(p.recs) {
				// Mixed-mode leftover: hand out what remains of a packet
				// partially served through Next.
				for _, r := range p.recs[pos:] {
					b.Append(r)
				}
				c.x.pool.put(p)
				return nil
			}
			c.x.pool.put(p)
			if c.pendErr != nil {
				err := c.pendErr
				c.pendErr = nil
				return err
			}
			continue
		}
		if c.done {
			return nil
		}
		if c.x.cfg.Inline {
			if err := c.inlineStep(); err != nil {
				return err
			}
			continue
		}
		p := c.x.port.queues[c.idx].pop(c.x.cfg.Producers, c.tk)
		if p == nil {
			c.done = true
			return c.x.firstErr()
		}
		c.tk.FlowIn("packet", "pop", p.flow, "records", int64(len(p.recs)))
		c.cur = p
	}
}

// Next implements Iterator.
func (c *xConsumer) Next() (Rec, bool, error) {
	if !c.open {
		return Rec{}, false, errState("exchange", "consumer next before open")
	}
	for {
		if c.cur != nil && c.pos < len(c.cur.recs) {
			r := c.cur.recs[c.pos]
			c.pos++
			return r, true, nil
		}
		if c.cur != nil && c.cur.err != nil {
			err := c.cur.err
			c.x.pool.put(c.cur)
			c.cur = nil
			return Rec{}, false, err
		}
		if c.cur != nil {
			// Every record has been handed out: return the drained packet
			// to the free list instead of dropping it for the GC.
			c.x.pool.put(c.cur)
		}
		c.cur, c.pos = nil, 0
		if c.done {
			return Rec{}, false, nil
		}
		if c.x.cfg.Inline {
			if err := c.inlineStep(); err != nil {
				return Rec{}, false, err
			}
			continue
		}
		p := c.x.port.queues[c.idx].pop(c.x.cfg.Producers, c.tk)
		if p == nil {
			c.done = true
			if err := c.x.firstErr(); err != nil {
				return Rec{}, false, err
			}
			return Rec{}, false, nil
		}
		c.tk.FlowIn("packet", "pop", p.flow, "records", int64(len(p.recs)))
		c.cur = p
	}
}

// inlineStep makes progress in the no-fork variant: take whatever the
// queue already holds; otherwise request records from our own input tree,
// "possibly sending them off to other processes in the group, until a
// record for its own partition is found" (§4.4); once our input is
// exhausted, block on the queue for the remaining peers.
func (c *xConsumer) inlineStep() error {
	q := c.x.port.queues[c.idx]
	if p := q.tryPop(); p != nil {
		c.tk.FlowIn("packet", "pop", p.flow, "records", int64(len(p.recs)))
		c.cur = p
		return nil
	}
	if !c.inputDone {
		r, ok, err := c.input.Next()
		if err != nil {
			c.x.setErr(err)
			c.out.flush(true)
			c.inputDone = true
			return err
		}
		if !ok {
			c.out.flush(true)
			c.inputDone = true
			return nil
		}
		c.out.route(r)
		return nil
	}
	p := q.pop(c.x.cfg.Producers, c.tk)
	if p == nil {
		c.done = true
		return c.x.firstErr()
	}
	c.tk.FlowIn("packet", "pop", p.flow, "records", int64(len(p.recs)))
	c.cur = p
	return nil
}

// Close implements Iterator.
func (c *xConsumer) Close() error {
	if !c.open {
		return errState("exchange", "consumer close before open")
	}
	c.open = false
	// Release anything we still hold, then abandon the queue.
	if c.cur != nil {
		for _, r := range c.cur.recs[c.pos:] {
			r.Unfix()
		}
		c.x.pool.put(c.cur)
		c.cur = nil
	}
	if c.x.cfg.Inline {
		if !c.inputDone {
			// Cancelled early: our peers still need our end-of-stream tags.
			c.out.flush(true)
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
	// Fork mode: make sure producers are running (an endpoint could be
	// closed before any Next), then abandon the queue and hand over to
	// the shutdown handshake.
	c.x.ensureStarted()
	c.x.port.queues[c.idx].drain()
	return c.x.consumerClosed(c.tk)
}

// streamGroup coordinates the per-producer stream endpoints of one
// consumer (KeepStreams mode): the last stream to close completes the
// endpoint's shutdown.
type streamGroup struct {
	mu        sync.Mutex
	remaining int
	started   bool
	// tk is the endpoint's shared trace track: every stream of one
	// consumer runs in that consumer's goroutine, so sharing keeps the
	// single-writer rule.
	tk *trace.Track
}

// xStream is a single-producer stream of one consumer endpoint, used
// beneath merge iterators (§4.4: "the merge iterator requires to
// distinguish the input records by their producer").
type xStream struct {
	x        *Exchange
	consumer int
	producer int
	group    *streamGroup

	cur  *packet
	pos  int
	open bool
	done bool
}

// Schema implements Iterator.
func (s *xStream) Schema() *record.Schema { return s.x.cfg.Schema }

// Open implements Iterator.
func (s *xStream) Open() error {
	if s.open {
		return errState("exchange", "stream already open")
	}
	s.group.mu.Lock()
	if !s.group.started {
		s.group.started = true
		s.group.tk = s.x.consumerTrack(s.consumer)
	}
	s.group.mu.Unlock()
	s.x.ensureStarted()
	s.cur, s.pos, s.done = nil, 0, false
	s.open = true
	return nil
}

// Next implements Iterator.
func (s *xStream) Next() (Rec, bool, error) {
	if !s.open {
		return Rec{}, false, errState("exchange", "stream next before open")
	}
	for {
		if s.cur != nil && s.pos < len(s.cur.recs) {
			r := s.cur.recs[s.pos]
			s.pos++
			return r, true, nil
		}
		if s.cur != nil && s.cur.err != nil {
			err := s.cur.err
			s.x.pool.put(s.cur)
			s.cur = nil
			return Rec{}, false, err
		}
		if s.cur != nil {
			s.x.pool.put(s.cur)
		}
		s.cur, s.pos = nil, 0
		if s.done {
			return Rec{}, false, nil
		}
		p := s.x.port.queues[s.consumer].popFrom(s.producer, s.group.tk)
		if p == nil {
			s.done = true
			if err := s.x.firstErr(); err != nil {
				return Rec{}, false, err
			}
			return Rec{}, false, nil
		}
		s.group.tk.FlowIn("packet", "pop", p.flow, "records", int64(len(p.recs)))
		s.cur = p
	}
}

// Close implements Iterator.
func (s *xStream) Close() error {
	if !s.open {
		return errState("exchange", "stream close before open")
	}
	s.open = false
	if s.cur != nil {
		for _, r := range s.cur.recs[s.pos:] {
			r.Unfix()
		}
		s.x.pool.put(s.cur)
		s.cur = nil
	}
	s.group.mu.Lock()
	s.group.remaining--
	last := s.group.remaining == 0
	s.group.mu.Unlock()
	if !last {
		return nil
	}
	s.x.port.queues[s.consumer].drain()
	return s.x.consumerClosed(s.group.tk)
}

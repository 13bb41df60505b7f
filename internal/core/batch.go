package core

import (
	"fmt"
	"sync/atomic"
	"unsafe"

	"repro/internal/storage/file"
)

// batchRecBytes is the accounting size of one batch record slot, used to
// express batch-pool occupancy in bytes for per-query memory attribution.
const batchRecBytes = int64(unsafe.Sizeof(Rec{}))

// DefaultBatchSize is the default number of records per batch. It matches
// the standard exchange packet size so that one producer pull fills
// exactly one packet and one popped packet serves exactly one consumer
// batch.
const DefaultBatchSize = 83

// MaxBatchSize bounds a batch size that arrives from outside the process
// (the X-Volcano-Batch header, the -batch flags, a dispatched fragment):
// a batch allocates its slots up front, so the bound is what keeps a
// request from sizing an allocation. It is far above any size that still
// amortises anything.
const MaxBatchSize = 4096

// CheckBatchSize validates a batch size given from outside: 1 is the
// paper's record-at-a-time discipline, MaxBatchSize the largest accepted.
func CheckBatchSize(n int) error {
	if n < 1 || n > MaxBatchSize {
		return fmt.Errorf("batch size %d out of range 1..%d (1 is record-at-a-time)", n, MaxBatchSize)
	}
	return nil
}

// Batch is the unit of the iterator protocol: a bounded run of records
// handed from an operator to its caller in one NextBatch call. Ownership
// follows the record protocol of §3 unchanged — every record in a
// returned batch carries one buffer pin that the caller must release,
// hold, or pass on.
//
// A batch normally fills its own reusable storage, but an exchange
// consumer may instead lend it a drained packet that fits its target:
// the packet's record slice *is* the batch, and the packet returns to its
// free list on the next Reset. Either way a Batch is single-goroutine state, like
// an iterator endpoint.
type Batch struct {
	recs []Rec
	// own is the batch's owned storage; recs aliases it except while a
	// packet is lent.
	own    []Rec
	target int

	// lent is a queue packet whose recs slice the batch currently serves
	// directly; Reset returns it to lpool.
	lent  *packet
	lpool *packetPool

	// The pad fills the 128-byte size class, so no two batches share a
	// cache line: the batches of different goroutines are allocated side
	// by side, and at batch size 1 every record rewrites the fields above.
	_ [56]byte
}

// NewBatch builds an empty batch that aims for target records per refill
// (DefaultBatchSize when target < 1).
func NewBatch(target int) *Batch {
	if target < 1 {
		target = DefaultBatchSize
	}
	return &Batch{own: make([]Rec, 0, target), target: target}
}

// Target returns the batch's fill size: no callee delivers more records
// in one call. An exchange consumer lends a whole packet only when it fits.
func (b *Batch) Target() int { return b.target }

// Len returns the number of records currently in the batch.
func (b *Batch) Len() int { return len(b.recs) }

// Full reports whether the batch has reached its target size.
func (b *Batch) Full() bool { return len(b.recs) >= b.target }

// Recs returns the batch's records. The slice is valid until the next
// Reset, Release, or NextBatch refill.
func (b *Batch) Recs() []Rec { return b.recs }

// Append adds one record (whose pin the batch now carries for its
// caller). Appending to a batch serving a lent packet first migrates the
// lent records into owned storage so the packet can return to its pool.
func (b *Batch) Append(r Rec) {
	if b.lent != nil {
		b.own = append(b.own[:0], b.recs...)
		b.recs = b.own
		p, pool := b.lent, b.lpool
		b.lent, b.lpool = nil, nil
		pool.put(p)
	}
	b.recs = append(b.recs, r)
	b.own = b.recs
}

// Reset empties the batch for the next refill: a lent packet goes back
// to its free list and owned storage keeps its capacity. Record
// references are dropped without unfixing — Reset is for records whose
// pins have already moved on. Use Release to discard unconsumed records.
func (b *Batch) Reset() {
	if b.lent != nil {
		p, pool := b.lent, b.lpool
		b.lent, b.lpool = nil, nil
		b.recs = b.own[:0]
		pool.put(p) // put clears the packet's record references
	}
	for i := range b.own {
		b.own[i] = Rec{}
	}
	b.own = b.own[:0]
	b.recs = b.own
}

// Release unfixes every record still in the batch and resets it: the
// error-path counterpart of Reset. Runs of records sharing a page are
// released in bulk.
func (b *Batch) Release() {
	file.UnfixBatch(b.recs)
	b.Reset()
}

// lend makes the batch serve a drained packet's record slice directly
// (the packet's record slice is the batch). The packet returns to pool
// on the batch's next Reset.
func (b *Batch) lend(p *packet, pool *packetPool) {
	b.Reset()
	b.lent, b.lpool = p, pool
	b.recs = p.recs
}

// fill is the fill loop of an operator that computes its output one
// record at a time: it resets b and appends next's records until b is
// full or next reports the end of the stream. On error b is released.
func fill(b *Batch, next func() (Rec, bool, error)) error {
	b.Reset()
	for !b.Full() {
		r, ok, err := next()
		if err != nil {
			b.Release()
			return err
		}
		if !ok {
			return nil
		}
		b.Append(r)
	}
	return nil
}

// Cursor is the record-at-a-time view of an iterator: it pulls NextBatch
// refills of a fixed size and hands their records out one by one. The
// drain loops of stop-and-go operators (sort runs, hash builds,
// aggregation, division) and the inputs of merge-shaped operators consume
// through it; at size 1 every refill is one record, the paper's
// record-at-a-time discipline.
type Cursor struct {
	src Iterator
	b   *Batch
	pos int
}

// NewCursor builds a cursor over it pulling batches of size records
// (DefaultBatchSize when size < 1). Opening and closing it stay with the
// caller.
func NewCursor(it Iterator, size int) *Cursor {
	return &Cursor{src: it, b: NewBatch(size)}
}

// Pull returns the next record, whose pin passes to the caller; ok=false
// at end of stream.
func (c *Cursor) Pull() (Rec, bool, error) {
	for c.pos >= c.b.Len() {
		c.pos = 0
		if err := c.src.NextBatch(c.b); err != nil {
			return Rec{}, false, err
		}
		if c.b.Len() == 0 {
			return Rec{}, false, nil
		}
	}
	rec := c.b.Recs()[c.pos]
	c.pos++
	return rec, true, nil
}

// Release unfixes the records pulled from the input but not yet handed
// out. A consumer that stops before end of stream releases its cursor
// before closing the input.
func (c *Cursor) Release() {
	file.UnfixBatch(c.b.Recs()[c.pos:])
	c.b.Reset()
	c.pos = 0
}

// BatchPool is a bounded free list of batches, the batch counterpart of
// the packet free list: exchange producers draw their pull batches here
// so the steady state allocates nothing per batch. Like packetPool it is
// used non-blockingly from both sides — Get falls back to a fresh batch
// when the list is empty (a miss), Put drops the batch when the list is
// full (a discard) — so every path that is unsure whether a batch may be
// reused can simply not return it.
type BatchPool struct {
	free   chan *Batch
	target int

	hits     atomic.Int64
	misses   atomic.Int64
	discards atomic.Int64

	// meter, when set, attributes the pool's memory footprint to one
	// query: allocations (misses) add to its live/high-water bytes,
	// discards subtract. Steady-state hits and puts touch nothing.
	meter *ResourceMeter
}

// MeterTo attributes the pool's batch memory to m (nil disables). Set
// before the pool is shared between goroutines.
func (p *BatchPool) MeterTo(m *ResourceMeter) { p.meter = m }

// NewBatchPool builds a free list bounded to size batches of the given
// target fill.
func NewBatchPool(size, target int) *BatchPool {
	if size < 1 {
		size = 1
	}
	if target < 1 {
		target = DefaultBatchSize
	}
	return &BatchPool{free: make(chan *Batch, size), target: target}
}

// Get returns a recycled batch, or a freshly allocated one when the free
// list is empty. The batch arrives reset.
func (p *BatchPool) Get() *Batch {
	select {
	case b := <-p.free:
		p.hits.Add(1)
		xmBatchPoolHits.Add(1)
		return b
	default:
		p.misses.Add(1)
		xmBatchPoolMisses.Add(1)
		p.meter.BatchAlloc(int64(p.target) * batchRecBytes)
		return NewBatch(p.target)
	}
}

// Put resets b (returning any lent packet, dropping stale record
// references without unfixing) and returns it to the free list, or drops
// it for the GC when the list is full. The caller must own the batch
// exclusively and must not touch it afterwards.
func (p *BatchPool) Put(b *Batch) {
	if b == nil {
		return
	}
	b.Reset()
	select {
	case p.free <- b:
	default:
		p.discards.Add(1)
		xmBatchPoolDiscards.Add(1)
		p.meter.BatchFree(int64(cap(b.own)) * batchRecBytes)
	}
}

// Stats snapshots the pool counters.
func (p *BatchPool) Stats() (hits, misses, discards int64) {
	return p.hits.Load(), p.misses.Load(), p.discards.Load()
}

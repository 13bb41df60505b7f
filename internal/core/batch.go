package core

import (
	"sync/atomic"
	"unsafe"

	"repro/internal/record"
	"repro/internal/storage/file"
)

// batchRecBytes is the accounting size of one batch record slot, used to
// express batch-pool occupancy in bytes for per-query memory attribution.
const batchRecBytes = int64(unsafe.Sizeof(Rec{}))

// DefaultBatchSize is the default number of records per batch. It matches
// the standard exchange packet size so that in batch mode one producer
// pull fills exactly one packet and one popped packet serves exactly one
// consumer batch.
const DefaultBatchSize = 83

// Batch is the unit of the batch-at-a-time protocol: a bounded run of
// records handed from an operator to its caller in one NextBatch call,
// amortising the per-record iterator call chain that dominates the
// row-at-a-time hot path. Ownership follows the record protocol of §3
// unchanged — every record in a returned batch carries one buffer pin
// that the caller must release, hold, or pass on.
//
// A batch normally fills its own reusable storage, but an exchange
// consumer may instead lend it a drained packet wholesale: the packet's
// record slice *is* the batch, and the packet returns to its free list
// on the next Reset. Either way a Batch is single-goroutine state, like
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
}

// NewBatch builds an empty batch that aims for target records per refill
// (DefaultBatchSize when target < 1).
func NewBatch(target int) *Batch {
	if target < 1 {
		target = DefaultBatchSize
	}
	return &Batch{own: make([]Rec, 0, target), target: target}
}

// Target returns the batch's nominal fill size. A callee stops appending
// at Target records; a lending source may deliver more in one call (up
// to the packet size) since it hands over storage wholesale.
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

// BatchIterator is the batch-at-a-time face of an operator. NextBatch
// resets b and refills it with the next run of records; b.Len() == 0
// with a nil error means end of stream. On a non-nil error the callee
// leaves b empty (any partially appended records are unfixed by the
// callee). Mixing Next and NextBatch calls on one open iterator is
// allowed — the exchange consumer hands out any partially served packet
// before lending whole ones — but pointless; pick one per consumer.
type BatchIterator interface {
	Iterator
	NextBatch(b *Batch) error
}

// BatchConfigurable is implemented by operators whose *input* consumption
// can switch to batch pulls: EnableBatch(size) makes the operator drain
// its inputs through NextBatch refills of the given size. It affects how
// the operator consumes, not what it produces; output batching is always
// available through NextBatch (natively or via the AsBatch shim).
type BatchConfigurable interface {
	EnableBatch(size int)
}

// AsBatch returns it unchanged when it already speaks the batch protocol
// and otherwise wraps it in the row-at-a-time shim, which fills batches
// with repeated Next calls. The shim is what keeps every row-only
// operator (and external Iterator implementation) valid in batch mode.
func AsBatch(it Iterator) BatchIterator {
	if b, ok := it.(BatchIterator); ok {
		return b
	}
	return &rowBatcher{it}
}

// rowBatcher is the row→batch shim.
type rowBatcher struct{ Iterator }

func (s *rowBatcher) NextBatch(b *Batch) error {
	b.Reset()
	for !b.Full() {
		r, ok, err := s.Iterator.Next()
		if err != nil {
			b.Release()
			return err
		}
		if !ok {
			break
		}
		b.Append(r)
	}
	return nil
}

// recSource is a record-at-a-time cursor over an operator's input,
// letting the drain loops of stop-and-go operators (sort runs, hash
// builds, aggregation) stay record-shaped whether they pull rows or
// batches underneath.
type recSource interface {
	next() (Rec, bool, error)
	// release unfixes buffered records not yet handed out.
	release()
}

// rowSource is the row-pull cursor: a direct pass-through to Next.
type rowSource struct{ it Iterator }

func (s rowSource) next() (Rec, bool, error) { return s.it.Next() }
func (s rowSource) release()                 {}

// batchReader adapts batch pulls back to a record cursor: one NextBatch
// refill per batch amortises the per-record call chain for the consume
// loops of stop-and-go operators.
type batchReader struct {
	src BatchIterator
	b   *Batch
	pos int
}

func newBatchReader(it Iterator, size int) *batchReader {
	return &batchReader{src: AsBatch(it), b: NewBatch(size)}
}

func (r *batchReader) next() (Rec, bool, error) {
	for r.pos >= r.b.Len() {
		if err := r.src.NextBatch(r.b); err != nil {
			r.pos = 0
			return Rec{}, false, err
		}
		r.pos = 0
		if r.b.Len() == 0 {
			return Rec{}, false, nil
		}
	}
	rec := r.b.Recs()[r.pos]
	r.pos++
	return rec, true, nil
}

func (r *batchReader) release() {
	for _, rec := range r.b.Recs()[r.pos:] {
		rec.Unfix()
	}
	r.b.Reset()
	r.pos = 0
}

// inputSource picks the consume cursor for an operator's input: batch
// refills of the given size when the operator was switched with
// EnableBatch, plain Next otherwise.
func inputSource(it Iterator, batch int) recSource {
	if batch > 0 {
		return newBatchReader(it, batch)
	}
	return rowSource{it}
}

// BatchPool is a bounded free list of batches, the batch-protocol
// counterpart of the packet free list: exchange producers draw their
// pull batches here so the steady state allocates nothing per batch.
// Like packetPool it is used non-blockingly from both sides — Get falls
// back to a fresh batch when the list is empty (a miss), Put drops the
// batch when the list is full (a discard) — so every path that is unsure
// whether a batch may be reused can simply not return it.
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

// DrainBatch pulls everything from it through the batch protocol
// (between Open and Close), unfixing each record, and returns the count:
// the batch-mode counterpart of Drain.
func DrainBatch(it Iterator, size int) (int, error) {
	if err := it.Open(); err != nil {
		return 0, err
	}
	src := AsBatch(it)
	b := NewBatch(size)
	n := 0
	for {
		if err := src.NextBatch(b); err != nil {
			b.Release()
			_ = it.Close()
			return n, err
		}
		if b.Len() == 0 {
			break
		}
		n += b.Len()
		// Coalesced release: records created together share pages, so a
		// batch typically costs one or two UnfixN calls to unpin.
		file.UnfixBatch(b.Recs())
	}
	b.Reset()
	return n, it.Close()
}

// CollectBatch runs the iterator to completion through the batch
// protocol and returns decoded rows: the batch-mode counterpart of
// Collect, used by the differential harness to compare modes.
func CollectBatch(it Iterator, size int) ([][]record.Value, error) {
	if err := it.Open(); err != nil {
		return nil, err
	}
	src := AsBatch(it)
	s := it.Schema()
	b := NewBatch(size)
	var rows [][]record.Value
	for {
		if err := src.NextBatch(b); err != nil {
			b.Release()
			_ = it.Close()
			return rows, err
		}
		if b.Len() == 0 {
			break
		}
		for i, r := range b.Recs() {
			vals, err := s.Decode(r.Data)
			if err != nil {
				for _, rest := range b.Recs()[i:] {
					rest.Unfix()
				}
				b.Reset()
				_ = it.Close()
				return rows, err
			}
			for j := range vals {
				vals[j] = vals[j].Copy()
			}
			rows = append(rows, vals)
			r.Unfix()
		}
	}
	b.Reset()
	return rows, it.Close()
}

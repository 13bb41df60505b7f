// Package buffer implements Volcano's shared buffer manager (paper, §3 and
// §4.5). All goroutines ("processes") share one pool; records are passed
// between operators as pinned buffer residents, with each pinned record
// owned by exactly one operator at a time.
//
// Locking follows the paper's two-level scheme: one pool lock protects the
// hash table and the LRU chain and is never held during I/O; each frame
// (descriptor/cluster) has its own lock, acquired with an atomic try-lock.
// If the try-lock fails, the whole operation — including the hash-table
// lookup — is restarted, because the lock holder might be reading or
// replacing the requested cluster. The restart scheme never holds one lock
// while waiting for another, so deadlock is impossible (no hold-and-wait).
//
// A single-global-lock mode is provided for the ablation the paper
// discusses ("we could have used one exclusive lock as in the memory
// module [but] decreased concurrency would have removed most or all
// advantages of parallel query processing").
//
// Frame life cycle. These hold whenever the pool lock is free and the
// frame's descriptor lock is not held by an operation in progress:
//
//   - A page ID is in the table exactly when one frame holds that page or
//     is being read into for it; frame.pid is that key. A frame whose
//     page was discarded or whose read failed is unmapped and !valid.
//   - A frame on the chain has fixCount 0; a frame at 0 is on the chain
//     except between an atomic unfix to zero and that unfix's pool-lock
//     round, and meanwhile no one can steal it. fixCount is atomic: a
//     pin on a frame the caller already holds, and an unfix that leaves
//     pins behind, change neither the table nor the chain, so they take
//     no lock. A count moves from 0 to 1 only under the pool lock — the
//     hit path of fixOnce and FlushPage pin a mapped frame, a miss pins
//     the victim it takes off the chain — and none of them unlinks a
//     frame that is not on the chain. An unfix to zero then takes the
//     pool lock once and pushes the frame if it is still at zero and not
//     already linked; Discard and FlushPage accept the frame in that
//     window. Victims come only from the chain, so a frame waiting for
//     its round cannot be stolen. Whoever releases the pool lock with a
//     frame off the chain for I/O holds a pin on it meanwhile, so a late
//     round cannot link a frame in the middle of a transfer.
//   - In TwoLevel mode only a clean frame is stolen. A dirty victim is
//     written back first, while its old page ID is still mapped and its
//     descriptor locked, so a Fix, FlushPage or Discard of the old page
//     meets the lock and restarts (§4.5) instead of missing and reading
//     the device before the write lands. The fix holds the victim at
//     count 1 during the write, as FlushPage holds its frame: no other
//     pin can exist on it (it was on the chain, and a new one needs the
//     descriptor lock), and a late unfix round leaves a held frame
//     alone. The fix then puts it back at the LRU head at zero and
//     restarts to steal the clean frame; a failed write-back leaves the
//     page mapped, dirty and at the LRU head. Global mode holds the pool
//     lock across the write-back, so no other operation can fall into
//     that window.
package buffer

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/meter"
	"repro/internal/record"
	"repro/internal/storage/device"
)

// LockMode selects the pool's locking discipline.
type LockMode uint8

const (
	// TwoLevel is the paper's pool-lock + per-descriptor try-lock scheme.
	TwoLevel LockMode = iota
	// Global holds the pool lock across everything, including I/O.
	Global
)

// ErrBufferFull is returned when no frame can be evicted because every
// frame is pinned.
var ErrBufferFull = errors.New("buffer: all frames pinned")

// Frame is a buffer descriptor plus its page image. Callers receive *Frame
// from Fix/FixNew and must balance every fix with exactly one Unfix.
type Frame struct {
	mu     sync.Mutex // the descriptor ("cluster") lock
	pid    record.PageID
	data   []byte
	stripe *pinStripe // where this frame's unfixes and extra pins are counted

	fixCount atomic.Int32

	// The fields below are protected by the pool lock.
	dirty bool
	valid bool

	// LRU chain links, protected by the pool lock.
	prev, next *Frame
	onChain    bool
}

// pinStripes is how many counter stripes a pool spreads its per-pin
// counters over; frame i counts on stripe i % pinStripes.
const pinStripes = 16

// pinStripe holds the counters every Pin and Unfix bumps, padded so that
// goroutines unpinning frames of different stripes do not share a cache
// line (128 bytes: two lines, whatever the array's alignment).
type pinStripe struct {
	unfixes, xtraPins atomic.Int64
	_                 [112]byte
}

// Data returns the page image. Valid only while the caller holds a fix;
// the slice must not be retained past Unfix.
func (f *Frame) Data() []byte { return f.data }

// Stats aggregates pool activity counters. All counters are cumulative.
type Stats struct {
	Fixes, Unfixes     int64
	Hits, Misses       int64
	Reads, Writes      int64
	Evictions          int64
	Restarts           int64
	ExtraPins          int64
	CurrentlyFixedHint int64 // Fixes+ExtraPins-Unfixes; 0 when all pins balanced
}

// Sub returns the counter deltas since a previous snapshot, for
// attributing pool activity to one query or phase. CurrentlyFixedHint is
// recomputed from the deltas: 0 means the interval's pins balanced.
func (s Stats) Sub(prev Stats) Stats {
	d := Stats{
		Fixes:     s.Fixes - prev.Fixes,
		Unfixes:   s.Unfixes - prev.Unfixes,
		Hits:      s.Hits - prev.Hits,
		Misses:    s.Misses - prev.Misses,
		Reads:     s.Reads - prev.Reads,
		Writes:    s.Writes - prev.Writes,
		Evictions: s.Evictions - prev.Evictions,
		Restarts:  s.Restarts - prev.Restarts,
		ExtraPins: s.ExtraPins - prev.ExtraPins,
	}
	d.CurrentlyFixedHint = d.Fixes + d.ExtraPins - d.Unfixes
	return d
}

// Pool is the shared buffer pool.
type Pool struct {
	reg  *device.Registry
	mode LockMode

	mu     sync.Mutex // the pool lock
	table  map[record.PageID]*Frame
	frames []*Frame
	// lru is a circular doubly-linked list through prev/next with a
	// sentinel head; head.next is least recently used.
	lru Frame

	// Activity counters. Atomic so a live scraper (internal/metrics) can
	// read them while queries run, without taking the pool lock. A fix
	// is a hit or a miss, so fixes are not counted apart; unfixes and
	// extra pins are counted on the frames' stripes, off the shared line.
	hits, misses        atomic.Int64
	reads, writes       atomic.Int64
	evictions, restarts atomic.Int64
	stripes             [pinStripes]pinStripe
}

// NewPool creates a pool of nframes frames over the given device registry.
func NewPool(reg *device.Registry, nframes int, mode LockMode) *Pool {
	p := &Pool{
		reg:   reg,
		mode:  mode,
		table: make(map[record.PageID]*Frame, nframes),
	}
	p.lru.prev, p.lru.next = &p.lru, &p.lru
	p.frames = make([]*Frame, nframes)
	// One arena and one frame slab instead of per-frame allocations: pool
	// construction is two large allocations regardless of size, and the
	// page images are contiguous (fewer GC objects to scan for a
	// pointer-free 8 MB region).
	arena := make([]byte, nframes*device.PageSize)
	slab := make([]Frame, nframes)
	for i := range p.frames {
		f := &slab[i]
		f.data = arena[i*device.PageSize : (i+1)*device.PageSize : (i+1)*device.PageSize]
		f.stripe = &p.stripes[i%pinStripes]
		p.frames[i] = f
		p.chainPush(f)
	}
	return p
}

// Registry returns the device registry the pool reads and writes through.
func (p *Pool) Registry() *device.Registry { return p.reg }

// chainPush appends f at the MRU end. Pool lock must be held.
func (p *Pool) chainPush(f *Frame) {
	if f.onChain {
		panic("buffer: frame already on LRU chain")
	}
	tail := p.lru.prev
	tail.next = f
	f.prev = tail
	f.next = &p.lru
	p.lru.prev = f
	f.onChain = true
}

// chainPushHead inserts f at the LRU end, making it the next victim. Pool
// lock must be held.
func (p *Pool) chainPushHead(f *Frame) {
	if f.onChain {
		panic("buffer: frame already on LRU chain")
	}
	head := p.lru.next
	f.next = head
	f.prev = &p.lru
	head.prev = f
	p.lru.next = f
	f.onChain = true
}

// chainRemove unlinks f from the LRU chain. Pool lock must be held.
func (p *Pool) chainRemove(f *Frame) {
	if !f.onChain {
		panic("buffer: frame not on LRU chain")
	}
	f.prev.next = f.next
	f.next.prev = f.prev
	f.prev, f.next = nil, nil
	f.onChain = false
}

// lruHead returns the least recently used unpinned frame, or nil.
func (p *Pool) lruHead() *Frame {
	if p.lru.next == &p.lru {
		return nil
	}
	return p.lru.next
}

// lockFrame acquires f's descriptor lock under the current mode. In Global
// mode the pool lock already serialises everything, so it is a no-op.
// Returns false if the try-lock failed and the operation must restart.
func (p *Pool) lockFrame(f *Frame) bool {
	if p.mode == Global {
		return true
	}
	return f.mu.TryLock()
}

func (p *Pool) unlockFrame(f *Frame) {
	if p.mode == Global {
		return
	}
	f.mu.Unlock()
}

// restart backs off before re-running a fix attempt whose descriptor
// try-lock failed ("the operation [is] delayed and restarted", §4.5).
func (p *Pool) restart() {
	p.restarts.Add(1)
	runtime.Gosched()
}

// Fix pins the page in the buffer, reading it from its device on a miss,
// and returns its frame. Every successful Fix must be balanced by Unfix.
func (p *Pool) Fix(pid record.PageID) (*Frame, error) {
	return p.fix(pid, false, nil)
}

// FixFor is Fix with per-query attribution: the fix (hit or miss) and any
// device I/O it triggers are also added to m. A nil meter makes it
// exactly Fix.
func (p *Pool) FixFor(pid record.PageID, m *meter.Meter) (*Frame, error) {
	return p.fix(pid, false, m)
}

// FixNew allocates a fresh page on the given device, pins it with zeroed
// contents, and returns the frame and new page identity. The page is
// marked dirty so it reaches the device even if never written again.
func (p *Pool) FixNew(dev record.DeviceID) (*Frame, record.PageID, error) {
	return p.FixNewFor(dev, nil)
}

// FixNewFor is FixNew with per-query attribution (nil meter = FixNew).
func (p *Pool) FixNewFor(dev record.DeviceID, m *meter.Meter) (*Frame, record.PageID, error) {
	d, err := p.reg.Get(dev)
	if err != nil {
		return nil, record.NilPage, err
	}
	page, err := d.AllocPage()
	if err != nil {
		return nil, record.NilPage, err
	}
	pid := record.PageID{Dev: dev, Page: page}
	f, err := p.fix(pid, true, m)
	if err != nil {
		_ = d.FreePage(page)
		return nil, record.NilPage, err
	}
	return f, pid, nil
}

func (p *Pool) fix(pid record.PageID, fresh bool, m *meter.Meter) (*Frame, error) {
	if pid.IsNil() {
		return nil, fmt.Errorf("buffer: fix of nil page")
	}
	spins := 0
	for {
		f, err := p.fixOnce(pid, fresh, m)
		if err == nil {
			return f, nil
		}
		if errors.Is(err, errRetry) {
			p.restart()
			continue
		}
		if errors.Is(err, ErrBufferFull) && spins < 64 {
			// Another operator may unpin shortly (e.g. a consumer draining
			// exchange packets); give it a chance before failing.
			spins++
			runtime.Gosched()
			continue
		}
		return nil, err
	}
}

// errRetry signals that a descriptor try-lock failed and the fix must be
// restarted from the hash-table lookup.
var errRetry = errors.New("buffer: retry")

func (p *Pool) fixOnce(pid record.PageID, fresh bool, m *meter.Meter) (*Frame, error) {
	p.mu.Lock()
	if f, ok := p.table[pid]; ok {
		// Found in the buffer: atomic test-and-lock on the descriptor; on
		// failure release the pool lock and restart (§4.5).
		if !p.lockFrame(f) {
			p.mu.Unlock()
			return nil, errRetry
		}
		if !f.valid {
			// The frame was abandoned by a failed read; treat as miss by
			// falling through to a restart after clearing it.
			p.unlockFrame(f)
			p.mu.Unlock()
			return nil, errRetry
		}
		f.fixCount.Add(1)
		if f.onChain {
			p.chainRemove(f)
		}
		p.hits.Add(1)
		p.unlockFrame(f)
		p.mu.Unlock()
		m.FixHit()
		return f, nil
	}

	// Miss: find a victim.
	victim := p.lruHead()
	if victim == nil {
		p.mu.Unlock()
		return nil, fmt.Errorf("%w (%d frames)", ErrBufferFull, len(p.frames))
	}
	if !p.lockFrame(victim) {
		p.mu.Unlock()
		return nil, errRetry
	}
	p.chainRemove(victim)
	if victim.valid && victim.dirty && p.mode != Global {
		// Clean before steal: the old page ID stays mapped and the
		// descriptor locked during the write, so a Fix or Discard of it
		// restarts (§4.5). The fix holds the victim across the write, as
		// FlushPage does, so a late unfix round leaves it unlinked. The
		// retry steals the now-clean frame.
		victim.fixCount.Store(1)
		p.mu.Unlock()
		werr := p.writeBack(victim, victim.pid, m)
		p.mu.Lock()
		if werr == nil {
			victim.dirty = false
		}
		victim.fixCount.Store(0)
		p.chainPushHead(victim)
		p.unlockFrame(victim)
		p.mu.Unlock()
		if werr != nil {
			return nil, werr
		}
		return nil, errRetry
	}
	oldPid, oldDirty, oldValid := victim.pid, victim.dirty, victim.valid
	if oldValid {
		delete(p.table, oldPid)
		p.evictions.Add(1)
	}
	victim.pid = pid
	victim.fixCount.Store(1)
	victim.valid = false
	victim.dirty = false
	p.table[pid] = victim
	p.misses.Add(1)
	m.FixMiss()
	if p.mode != Global {
		// Release the pool lock before I/O; the descriptor lock protects
		// the frame during the transfer.
		p.mu.Unlock()
	}

	err := p.replace(victim, oldPid, oldDirty && oldValid, fresh, m)

	if p.mode != Global {
		p.mu.Lock()
	}
	if err != nil {
		// Abandon the frame: unmap it and return it to the LRU chain.
		delete(p.table, pid)
		victim.fixCount.Store(0)
		victim.valid = false
		p.chainPush(victim)
		p.unlockFrame(victim)
		p.mu.Unlock()
		return nil, err
	}
	victim.valid = true
	if fresh {
		victim.dirty = true
	}
	p.unlockFrame(victim)
	p.mu.Unlock()
	return victim, nil
}

// writeBack writes f's image to page pid while the caller holds the
// descriptor lock. Device I/O is attributed to the meter of the fix that
// triggered it — including a write-back of a page another query dirtied,
// since the cost lands on this query's critical path.
func (p *Pool) writeBack(f *Frame, pid record.PageID, m *meter.Meter) error {
	d, err := p.reg.Get(pid.Dev)
	if err != nil {
		return fmt.Errorf("buffer: write-back: %w", err)
	}
	if err := d.WritePage(pid.Page, f.data); err != nil {
		return fmt.Errorf("buffer: write-back %s: %w", pid, err)
	}
	p.writes.Add(1)
	m.DeviceWrite(device.PageSize)
	return nil
}

// replace reads the new page into f while the caller holds the descriptor
// lock. writeBack is set only in Global mode, where the pool lock is held
// across the I/O; otherwise fixOnce has already cleaned the victim.
func (p *Pool) replace(f *Frame, oldPid record.PageID, writeBack, fresh bool, m *meter.Meter) error {
	if writeBack {
		if err := p.writeBack(f, oldPid, m); err != nil {
			return err
		}
	}
	if fresh {
		for i := range f.data {
			f.data[i] = 0
		}
		return nil
	}
	d, err := p.reg.Get(f.pid.Dev)
	if err != nil {
		return err
	}
	if err := d.ReadPage(f.pid.Page, f.data); err != nil {
		return fmt.Errorf("buffer: read %s: %w", f.pid, err)
	}
	p.reads.Add(1)
	m.DeviceRead(device.PageSize)
	return nil
}

// Unfix releases one pin on the frame, optionally marking the page dirty.
// When the fix count reaches zero the frame joins the MRU end of the LRU
// chain and becomes replaceable.
func (p *Pool) Unfix(f *Frame, dirty bool) { p.UnfixN(f, 1, dirty) }

// UnfixN releases n pins on the frame at once — the bulk counterpart of
// Unfix for batch consumers releasing many records that share a page. A
// clean unfix that leaves pins behind is one atomic add. A dirty one sets
// the flag under the pool and descriptor locks, as before, so that a
// write-back in progress cannot clear it; a clean unfix to zero takes the
// pool lock alone to put the frame on the chain.
func (p *Pool) UnfixN(f *Frame, n int, dirty bool) {
	if n <= 0 {
		return
	}
	if dirty {
		p.lockPoolAndFrame(f)
		defer p.unlockPoolAndFrame(f)
	}
	left := f.fixCount.Add(-int32(n))
	if left < 0 {
		f.fixCount.Add(int32(n))
		panic(fmt.Sprintf("buffer: unfix of %d pins with %d held on page %s", n, left+int32(n), f.pid))
	}
	f.stripe.unfixes.Add(int64(n))
	if dirty {
		f.dirty = true
	}
	if left > 0 {
		return
	}
	if !dirty {
		p.mu.Lock()
		defer p.mu.Unlock()
	}
	// A fix may have taken the frame since the add, and an unfix to zero
	// after it may already have linked it.
	if f.fixCount.Load() == 0 && !f.onChain {
		p.chainPush(f)
	}
}

// lockPoolAndFrame takes the pool lock and f's descriptor lock, releasing
// the pool lock and restarting while the try-lock fails (§4.5).
func (p *Pool) lockPoolAndFrame(f *Frame) {
	for {
		p.mu.Lock()
		if p.lockFrame(f) {
			return
		}
		p.mu.Unlock()
		p.restart()
	}
}

func (p *Pool) unlockPoolAndFrame(f *Frame) {
	p.unlockFrame(f)
	p.mu.Unlock()
}

// Pin adds n extra pins to an already-fixed frame — one atomic add, since
// a frame that is held is neither on the chain nor about to leave the
// table. The exchange operator uses this for its broadcast variant: "it
// is not necessary to copy the records ...; it is sufficient to pin them
// such that each consumer can unpin them as if it were the only process
// using them" (§4.4). The caller must already hold at least one fix.
func (p *Pool) Pin(f *Frame, n int) {
	if f.fixCount.Add(int32(n)) <= int32(n) {
		f.fixCount.Add(-int32(n))
		panic(fmt.Sprintf("buffer: extra pin on unpinned page %s", f.pid))
	}
	f.stripe.xtraPins.Add(int64(n))
}

// FlushPage writes the page to its device if it is resident and dirty.
// The page stays in the buffer. Pinned pages are flushed as-is.
func (p *Pool) FlushPage(pid record.PageID) error {
	for {
		p.mu.Lock()
		f, ok := p.table[pid]
		if !ok || !f.valid {
			p.mu.Unlock()
			return nil
		}
		if !p.lockFrame(f) {
			p.mu.Unlock()
			p.restart()
			continue
		}
		if !f.dirty {
			p.unlockFrame(f)
			p.mu.Unlock()
			return nil
		}
		f.fixCount.Add(1) // hold the frame across the I/O
		if f.onChain {
			p.chainRemove(f)
		}
		if p.mode != Global {
			p.mu.Unlock()
		}
		d, err := p.reg.Get(pid.Dev)
		if err == nil {
			err = d.WritePage(pid.Page, f.data)
		}
		if p.mode != Global {
			p.mu.Lock()
		}
		if err == nil {
			f.dirty = false
			p.writes.Add(1)
		}
		if f.fixCount.Add(-1) == 0 && !f.onChain {
			p.chainPush(f)
		}
		p.unlockPoolAndFrame(f)
		return err
	}
}

// Discard drops the page from the buffer without writing it back, used
// when a virtual file's pages are deleted. The page must not be pinned.
func (p *Pool) Discard(pid record.PageID) error {
	for {
		p.mu.Lock()
		f, ok := p.table[pid]
		if !ok {
			p.mu.Unlock()
			return nil
		}
		if !p.lockFrame(f) {
			p.mu.Unlock()
			p.restart()
			continue
		}
		if f.fixCount.Load() > 0 {
			p.unlockFrame(f)
			p.mu.Unlock()
			return fmt.Errorf("buffer: discard of pinned page %s", pid)
		}
		delete(p.table, pid)
		f.valid = false
		f.dirty = false
		f.pid = record.PageID{}
		// Move to the LRU head so the frame is reused first; a frame
		// still waiting for its unfix round is linked here instead.
		if f.onChain {
			p.chainRemove(f)
		}
		p.chainPushHead(f)
		p.unlockFrame(f)
		p.mu.Unlock()
		return nil
	}
}

// FlushAll writes every dirty resident page of the given device (or of all
// devices if dev is 0) back to storage.
func (p *Pool) FlushAll(dev record.DeviceID) error {
	p.mu.Lock()
	var pids []record.PageID
	for pid, f := range p.table {
		if f.valid && f.dirty && (dev == 0 || pid.Dev == dev) {
			pids = append(pids, pid)
		}
	}
	p.mu.Unlock()
	for _, pid := range pids {
		if err := p.FlushPage(pid); err != nil {
			return err
		}
	}
	return nil
}

// FixCount returns the current pin count of a resident page (for tests).
func (p *Pool) FixCount(pid record.PageID) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if f, ok := p.table[pid]; ok {
		return int(f.fixCount.Load())
	}
	return 0
}

// Stats returns a snapshot of the pool's counters. Safe to call at any
// time, including while queries run — the counters are atomics, so no
// lock is taken.
func (p *Pool) Stats() Stats {
	s := Stats{
		Fixes:     p.fixes(),
		Unfixes:   p.unfixes(),
		Hits:      p.hits.Load(),
		Misses:    p.misses.Load(),
		Reads:     p.reads.Load(),
		Writes:    p.writes.Load(),
		Evictions: p.evictions.Load(),
		Restarts:  p.restarts.Load(),
		ExtraPins: p.xtraPins(),
	}
	s.CurrentlyFixedHint = s.Fixes + s.ExtraPins - s.Unfixes
	return s
}

func (p *Pool) fixes() int64 { return p.hits.Load() + p.misses.Load() }

// unfixes and xtraPins sum the pin counters over the stripes.
func (p *Pool) unfixes() (n int64) {
	for i := range p.stripes {
		n += p.stripes[i].unfixes.Load()
	}
	return n
}

func (p *Pool) xtraPins() (n int64) {
	for i := range p.stripes {
		n += p.stripes[i].xtraPins.Load()
	}
	return n
}

// PinnedFrames returns how many frames are currently pinned (for tests and
// leak assertions).
func (p *Pool) PinnedFrames() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, f := range p.frames {
		if f.fixCount.Load() > 0 {
			n++
		}
	}
	return n
}

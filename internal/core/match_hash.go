package core

import (
	"repro/internal/record"
	"repro/internal/storage/file"
)

// HashMatch is the hash-based one-to-one match algorithm. On open it
// builds an in-memory hash table over the right ("build") input, holding
// its records pinned in the buffer; next probes with left ("probe")
// records. It reads both inputs a whole batch at a time. Records created
// for combined outputs are materialised through a virtual file (or the
// arena, when the consumer opted in), and consumed input records are
// unfixed by page run (file.UnfixBatch), per the ownership protocol of §3.
type HashMatch struct {
	env    *Env
	op     MatchOp
	left   Iterator
	right  Iterator
	schema *record.Schema
	lkey   keyer // the probe side's key function
	rkey   keyer // the build side's key function

	build     keyTable     // the build side's distinct keys
	heads     []int32      // by build key: its first entry
	entries   []buildEntry // build order, each key's chained by next
	comb      combiner     // for combined outputs
	seen      keyTable     // the probe keys passed on, for distinctProbe
	pending   recQueue
	trail     int // cursor over entries for right-only emission
	probing   bool
	inArena   bool // the consumer opted the output into an arena
	rightOpen bool
	opState
	// lb is the input batch being read: the right one while building, the
	// left one from lpos while probing. drops collects the input records
	// not kept or passed on until the next refill or return releases them.
	lb    *Batch
	lpos  int
	drops []Rec
}

type buildEntry struct {
	rec     Rec
	next    int32 // the key's next entry, or -1
	matched bool
}

// NewHashMatch builds the operator. leftKey and rightKey must have equal
// length and pairwise the same field types (checkKeys).
func NewHashMatch(env *Env, op MatchOp, left, right Iterator, leftKey, rightKey record.Key) (*HashMatch, error) {
	if err := checkKeys("hashmatch", left.Schema(), right.Schema(), leftKey, rightKey); err != nil {
		return nil, err
	}
	schema, err := matchOutputSchema(op, left.Schema(), right.Schema())
	if err != nil {
		return nil, err
	}
	return &HashMatch{
		env: env, op: op, left: left, right: right,
		lkey: newKeyer(left.Schema(), leftKey), rkey: newKeyer(right.Schema(), rightKey),
		schema: schema, comb: newCombiner(left.Schema(), right.Schema()),
	}, nil
}

// Schema implements Iterator.
func (h *HashMatch) Schema() *record.Schema { return h.schema }

// distinctBuild reports whether the build side dedupes on key.
func (h *HashMatch) distinctBuild() bool {
	switch h.op {
	case MatchUnion, MatchIntersect, MatchAntiDifference, MatchSemi, MatchAnti, MatchDifference:
		return true
	}
	return false
}

// distinctProbe reports whether probe-side outputs dedupe on key.
func (h *HashMatch) distinctProbe() bool {
	switch h.op {
	case MatchUnion, MatchIntersect, MatchDifference:
		return true
	}
	return false
}

// Open implements Iterator: the build phase.
func (h *HashMatch) Open() error { return h.opening("hashmatch", h.openImpl) }

func (h *HashMatch) openImpl() error {
	if h.op.combinesSchemas() {
		w, err := h.env.newOutput("hashmatch", h.schema, h.inArena)
		if err != nil {
			return err
		}
		h.comb.w = w
	}
	h.trail = 0
	if err := h.right.Open(); err != nil {
		h.abort()
		return err
	}
	h.rightOpen = true
	var tails []int32 // by build key: its last entry
	h.lb, h.lpos = NewBatch(h.env.BatchSize()), 0
	for {
		if err := h.right.NextBatch(h.lb); err != nil {
			h.abort()
			return err
		}
		if h.lb.Len() == 0 {
			break
		}
		for _, r := range h.lb.Recs() {
			k, existed := h.build.insert(h.rkey.of(r.Data))
			if existed && h.distinctBuild() {
				h.drops = append(h.drops, r)
				continue
			}
			e := int32(len(h.entries))
			h.entries = append(h.entries, buildEntry{rec: r, next: -1})
			if existed {
				h.entries[tails[k]].next, tails[k] = e, e
			} else {
				h.heads, tails = append(h.heads, e), append(tails, e)
			}
		}
		h.releaseDrops()
	}
	// NOTE: the build input stays open until our own close — its records
	// remain pinned in the hash table, and a materialising input (e.g. a
	// projection's virtual file) must not be shut down before all its
	// records are unpinned (the same rule exchange enforces across
	// process boundaries, §4.1).
	if err := h.left.Open(); err != nil {
		h.abort()
		return err
	}
	h.probing = true
	return nil
}

// UseArena implements ArenaOutput for the operations that create records.
func (h *HashMatch) UseArena() bool {
	h.inArena = h.op.combinesSchemas()
	return h.inArena
}

// NextBatch implements Iterator: the probe phase, then right-only
// emission. Queued outputs move into the batch up to its target, and the
// probe loop keeps going until the batch fills or both phases are
// exhausted. A probed left record is queued where the operation passes it
// on as it is, and dropped otherwise. The arena keeps the blocks of the
// outputs still queued: the caller has released everything delivered
// before.
func (h *HashMatch) NextBatch(b *Batch) error {
	if !h.open {
		return errState("hashmatch", "next before open")
	}
	if h.inArena {
		h.comb.w.arena.recycle(h.pending.len())
	}
	b.Reset()
	defer h.releaseDrops()
	for {
		h.pending.moveTo(b)
		if b.Full() {
			return nil
		}
		if h.probing {
			if h.lpos == h.lb.Len() {
				h.releaseDrops()
				h.lpos = 0
				if err := h.left.NextBatch(h.lb); err != nil {
					b.Release()
					return err
				}
				if h.lb.Len() == 0 {
					h.probing = false
				}
				continue
			}
			l := h.lb.Recs()[h.lpos]
			h.lpos++
			pass, err := h.match(l.Data)
			if pass {
				h.pending.push(l)
			} else {
				h.drops = append(h.drops, l)
			}
			if err != nil {
				b.Release()
				return err
			}
			continue
		}
		r, ok, err := h.trailNext()
		if err != nil {
			b.Release()
			return err
		}
		if !ok {
			return nil
		}
		b.Append(r)
	}
}

// releaseDrops unfixes the collected records, one UnfixN per page run.
func (h *HashMatch) releaseDrops() {
	file.UnfixBatch(h.drops)
	h.drops = h.drops[:0]
}

// match looks the left record image up in the hash table, queues the
// combined outputs it gives rise to, and reports whether the operation
// passes the left record itself through.
func (h *HashMatch) match(l []byte) (pass bool, err error) {
	combines := h.op.combinesSchemas()
	key, hk := h.lkey.of(l)
	k := h.build.find(key, hk)
	matched := k >= 0
	if matched {
		for i := h.heads[k]; i >= 0; i = h.entries[i].next {
			e := &h.entries[i]
			// Only the operations with a trailing right-only class read
			// the mark; setting it for all of them is harmless.
			e.matched = true
			if combines {
				out, err := h.comb.combine(l, e.rec.Data)
				if err != nil {
					return false, err
				}
				h.pending.push(out)
			}
		}
	}
	if h.distinctProbe() {
		if _, dup := h.seen.insert(key, hk); dup {
			return false, nil
		}
	}
	switch h.op {
	case MatchLeftOuter, MatchFullOuter:
		if !matched {
			out, err := h.comb.combine(l, h.comb.zeroR)
			if err != nil {
				return false, err
			}
			h.pending.push(out)
		}
	case MatchSemi, MatchIntersect:
		return matched, nil
	case MatchAnti, MatchDifference:
		return !matched, nil
	case MatchUnion:
		return true, nil
	}
	return false, nil
}

// trailNext emits right-side records after the probe phase: unmatched
// build entries for right-outer/full-outer/union/anti-difference.
func (h *HashMatch) trailNext() (Rec, bool, error) {
	emitUnmatched := false
	pad := false
	switch h.op {
	case MatchRightOuter, MatchFullOuter:
		emitUnmatched, pad = true, true
	case MatchUnion, MatchAntiDifference:
		emitUnmatched = true
	}
	if !emitUnmatched {
		return Rec{}, false, nil
	}
	for h.trail < len(h.entries) {
		e := &h.entries[h.trail]
		h.trail++
		if e.matched {
			continue
		}
		if pad {
			out, err := h.comb.combine(h.comb.zeroL, e.rec.Data)
			if err != nil {
				return Rec{}, false, err
			}
			return out, true, nil
		}
		// Pass the build record through with its own pin.
		e.rec.Share(1)
		return e.rec, true, nil
	}
	return Rec{}, false, nil
}

// Close implements Iterator: releases the hash table pins, closes both
// inputs (the build side stayed open to keep its records pinnable), and
// drops the temp file.
func (h *HashMatch) Close() error {
	if ok, err := h.closing("hashmatch"); !ok {
		return err
	}
	file.UnfixBatch(h.lb.Recs()[h.lpos:])
	h.lb.Reset()
	err := h.left.Close()
	h.release()
	if h.rightOpen {
		h.rightOpen = false
		if rerr := h.right.Close(); err == nil {
			err = rerr
		}
	}
	if derr := h.comb.dispose(); err == nil {
		err = derr
	}
	return err
}

func (h *HashMatch) abort() {
	h.release()
	if h.rightOpen {
		h.rightOpen = false
		_ = h.right.Close()
	}
	_ = h.comb.dispose()
}

func (h *HashMatch) release() {
	h.releaseDrops()
	h.pending.release()
	for _, e := range h.entries {
		e.rec.Unfix()
	}
	h.build, h.heads, h.entries, h.seen = keyTable{}, nil, nil, keyTable{}
}

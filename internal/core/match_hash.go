package core

import (
	"fmt"

	"repro/internal/record"
)

// HashMatch is the hash-based one-to-one match algorithm. On open it
// builds an in-memory hash table over the right ("build") input, holding
// its records pinned in the buffer; next probes with left ("probe")
// records. Records created for combined outputs are materialised through a
// virtual file, and consumed input records are unfixed, per the ownership
// protocol of §3.
type HashMatch struct {
	env      *Env
	op       MatchOp
	left     Iterator
	right    Iterator
	leftKey  record.Key
	rightKey record.Key
	schema   *record.Schema

	table      map[uint64][]*buildEntry
	order      []*buildEntry // build order, for deterministic trailing output
	comb       combiner      // for combined outputs
	seen       map[string]struct{}
	seenKey    []byte // scratch for the seen lookup
	pending    recQueue
	trail      int // cursor over order for right-only emission
	probing    bool
	rightOpen  bool
	open       bool
	openFailed bool    // Open ran and failed: next Close is a no-op
	probeSrc   *Cursor // the left input during the probe phase
}

type buildEntry struct {
	rec     Rec
	matched bool
}

// NewHashMatch builds the operator. leftKey and rightKey must have equal
// length and pairwise-comparable field types.
func NewHashMatch(env *Env, op MatchOp, left, right Iterator, leftKey, rightKey record.Key) (*HashMatch, error) {
	if len(leftKey) != len(rightKey) || len(leftKey) == 0 {
		return nil, fmt.Errorf("core: hashmatch: bad key arity %d/%d", len(leftKey), len(rightKey))
	}
	schema, err := matchOutputSchema(op, left.Schema(), right.Schema())
	if err != nil {
		return nil, err
	}
	return &HashMatch{
		env: env, op: op, left: left, right: right,
		leftKey: leftKey, rightKey: rightKey, schema: schema,
		comb: newCombiner(left.Schema(), right.Schema()),
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
func (h *HashMatch) Open() error {
	if h.open {
		return errState("hashmatch", "already open")
	}
	err := h.openImpl()
	h.openFailed = err != nil
	return err
}

func (h *HashMatch) openImpl() error {
	if h.op.combinesSchemas() {
		w, err := h.env.NewResultWriter("hashmatch", h.schema)
		if err != nil {
			return err
		}
		h.comb.w = w
	}
	h.table = make(map[uint64][]*buildEntry)
	h.seen = make(map[string]struct{})
	if err := h.right.Open(); err != nil {
		h.abort()
		return err
	}
	h.rightOpen = true
	rs := h.right.Schema()
	build := NewCursor(h.right, h.env.BatchSize())
	for {
		r, ok, err := build.Pull()
		if err != nil {
			h.abort()
			return err
		}
		if !ok {
			break
		}
		hk := rs.Hash(r.Data, h.rightKey)
		if h.distinctBuild() && h.bucketHasKey(hk, rs, r.Data) {
			r.Unfix()
			continue
		}
		e := &buildEntry{rec: r}
		h.table[hk] = append(h.table[hk], e)
		h.order = append(h.order, e)
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
	h.probeSrc = NewCursor(h.left, h.env.BatchSize())
	h.probing = true
	h.open = true
	return nil
}

func (h *HashMatch) bucketHasKey(hk uint64, rs *record.Schema, data []byte) bool {
	for _, e := range h.table[hk] {
		if keysEqual(rs, e.rec.Data, h.rightKey, rs, data, h.rightKey) {
			return true
		}
	}
	return false
}

// NextBatch implements Iterator: the probe phase, then right-only
// emission. Queued outputs move into the batch wholesale, and the probe
// loop keeps going until the batch fills or both phases are exhausted.
func (h *HashMatch) NextBatch(b *Batch) error {
	if !h.open {
		return errState("hashmatch", "next before open")
	}
	b.Reset()
	for {
		h.pending.drainTo(b)
		if b.Full() {
			return nil
		}
		if h.probing {
			l, ok, err := h.probeSrc.Pull()
			if err != nil {
				b.Release()
				return err
			}
			if !ok {
				h.probing = false
				continue
			}
			if err := h.probe(l); err != nil {
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

// probe handles one left record, queueing outputs on h.pending and
// disposing of the left pin: the record is passed on where the operation
// outputs it as it is, and unfixed otherwise.
func (h *HashMatch) probe(l Rec) error {
	pass, err := h.match(l.Data)
	if pass {
		h.pending.push(l)
	} else {
		l.Unfix()
	}
	return err
}

// match looks the left record image up in the hash table, queues the
// combined outputs it gives rise to, and reports whether the operation
// passes the left record itself through.
func (h *HashMatch) match(l []byte) (pass bool, err error) {
	ls, rs := h.left.Schema(), h.right.Schema()
	combines := h.op.combinesSchemas()
	matched := false
	for _, e := range h.table[ls.Hash(l, h.leftKey)] {
		if !keysEqual(ls, l, h.leftKey, rs, e.rec.Data, h.rightKey) {
			continue
		}
		// Only the operations with a trailing right-only class read the
		// mark; setting it for all of them is harmless.
		matched, e.matched = true, true
		if combines {
			out, err := h.comb.combine(l, e.rec.Data)
			if err != nil {
				return false, err
			}
			h.pending.push(out)
		}
	}
	if h.distinctProbe() {
		h.seenKey = ls.AppendKey(h.seenKey[:0], l, h.leftKey)
		if _, dup := h.seen[string(h.seenKey)]; dup {
			return false, nil
		}
		h.seen[string(h.seenKey)] = struct{}{}
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
	for h.trail < len(h.order) {
		e := h.order[h.trail]
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
	if h.openFailed {
		// A failed Open already unwound this operator's state; the
		// standard drain path closes unconditionally, and a state error
		// here would mask the root cause.
		h.openFailed = false
		return nil
	}
	if !h.open {
		return errState("hashmatch", "close before open")
	}
	h.open = false
	h.probeSrc.Release()
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
	h.pending.release()
	for _, e := range h.order {
		e.rec.Unfix()
	}
	h.order = nil
	h.table = nil
}

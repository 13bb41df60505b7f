package core

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/record"
)

// MatchOp selects which operation the one-to-one match operator performs.
// The one-to-one match generalises all binary matching operators (paper
// §1 lists two algorithms each for natural join, semi-join, outer join,
// anti-join, union, intersection, difference, anti-difference): every
// operation is a choice of which tuple classes — matched, left-only,
// right-only — appear in the output, and in what form.
type MatchOp int

// Match operations.
const (
	// MatchJoin outputs one combined record per matching pair.
	MatchJoin MatchOp = iota
	// MatchSemi outputs each left record with at least one match.
	MatchSemi
	// MatchAnti outputs each left record with no match (anti-join).
	MatchAnti
	// MatchLeftOuter is join plus unmatched left records padded with
	// zero values on the right (Volcano has no SQL NULL).
	MatchLeftOuter
	// MatchRightOuter is join plus unmatched right records padded left.
	MatchRightOuter
	// MatchFullOuter is join plus both unmatched sides, padded.
	MatchFullOuter
	// MatchUnion outputs the set union of the two inputs (same schema;
	// keys should cover the whole tuple for set semantics).
	MatchUnion
	// MatchIntersect outputs the distinct tuples present in both inputs.
	MatchIntersect
	// MatchDifference outputs the distinct left tuples with no match
	// (L − R).
	MatchDifference
	// MatchAntiDifference outputs the distinct right tuples with no match
	// (R − L).
	MatchAntiDifference
)

var matchOpNames = map[MatchOp]string{
	MatchJoin: "join", MatchSemi: "semijoin", MatchAnti: "antijoin",
	MatchLeftOuter: "leftouter", MatchRightOuter: "rightouter", MatchFullOuter: "fullouter",
	MatchUnion: "union", MatchIntersect: "intersect",
	MatchDifference: "difference", MatchAntiDifference: "antidifference",
}

// String names the operation.
func (op MatchOp) String() string { return matchOpNames[op] }

// combinesSchemas reports whether the output is the concatenation of both
// input schemas.
func (op MatchOp) combinesSchemas() bool {
	switch op {
	case MatchJoin, MatchLeftOuter, MatchRightOuter, MatchFullOuter:
		return true
	}
	return false
}

// sameSchemas reports whether the operation requires equal input schemas.
func (op MatchOp) sameSchemas() bool {
	switch op {
	case MatchUnion, MatchIntersect:
		return true
	}
	return false
}

// matchOutputSchema computes the output schema of a match operation.
func matchOutputSchema(op MatchOp, left, right *record.Schema) (*record.Schema, error) {
	if op.sameSchemas() && !left.Equal(right) {
		return nil, fmt.Errorf("core: %s requires equal schemas, got %s and %s", op, left, right)
	}
	switch {
	case op.combinesSchemas():
		return left.Concat(right), nil
	case op == MatchAntiDifference:
		return right, nil
	default:
		return left, nil
	}
}

// combiner creates the output records of the operators that concatenate
// a left with a right record — the joins of both match algorithms and
// nested loops — without decoding either: the two images are joined
// straight into a slot of the operator's temp file. zeroL and zeroR are
// the all-zero images outer joins pass for the missing side (Volcano has
// no SQL NULL).
type combiner struct {
	ls, rs       *record.Schema
	zeroL, zeroR []byte
	w            *ResultWriter
	scratch      []byte // combineIf's candidate image
}

func newCombiner(ls, rs *record.Schema) combiner {
	return combiner{ls: ls, rs: rs, zeroL: ls.Zero(), zeroR: rs.Zero()}
}

// combine materialises the concatenation of l and r, pinned.
func (c *combiner) combine(l, r []byte) (Rec, error) {
	n, err := record.ConcatSize(c.ls, l, c.rs, r)
	if err != nil {
		return Rec{}, err
	}
	out, err := c.w.Reserve(n)
	if err != nil {
		return Rec{}, err
	}
	record.ConcatInto(out.Data, c.ls, l, c.rs, r)
	return out, nil
}

// combineIf is combine for a pair that must first pass pred over the
// combined image: the candidate is built in a reused scratch buffer, so a
// rejected pair leaves nothing behind in the temp file.
func (c *combiner) combineIf(l, r []byte, pred expr.Predicate) (Rec, bool, error) {
	n, err := record.ConcatSize(c.ls, l, c.rs, r)
	if err != nil {
		return Rec{}, false, err
	}
	if cap(c.scratch) < n {
		c.scratch = make([]byte, n)
	}
	img := c.scratch[:n]
	record.ConcatInto(img, c.ls, l, c.rs, r)
	if keep, err := pred(img); err != nil || !keep {
		return Rec{}, false, err
	}
	out, err := c.w.WriteBytes(img)
	return out, err == nil, err
}

// dispose drops the temp file, if the operator opened one.
func (c *combiner) dispose() error {
	if c.w == nil {
		return nil
	}
	err := c.w.Dispose()
	c.w = nil
	return err
}

// recQueue is the FIFO of output records a match step produced ahead of
// its consumer. Popping keeps the backing array, so a join that queues a
// record or two per probe allocates nothing in the steady state.
type recQueue struct {
	recs []Rec
	head int
}

func (q *recQueue) push(r Rec) { q.recs = append(q.recs, r) }

func (q *recQueue) pop() (Rec, bool) {
	if q.head == len(q.recs) {
		q.recs, q.head = q.recs[:0], 0
		return Rec{}, false
	}
	r := q.recs[q.head]
	q.head++
	return r, true
}

// drainTo moves every queued record into b.
func (q *recQueue) drainTo(b *Batch) {
	for r, ok := q.pop(); ok; r, ok = q.pop() {
		b.Append(r)
	}
}

// release unfixes every queued record.
func (q *recQueue) release() {
	for r, ok := q.pop(); ok; r, ok = q.pop() {
		r.Unfix()
	}
}

// keysEqual verifies key equality between a left and right record (hash
// matches must be confirmed, hashes can collide).
func keysEqual(ls *record.Schema, l []byte, lk record.Key, rs *record.Schema, r []byte, rk record.Key) bool {
	return record.CompareKeys(ls, l, lk, rs, r, rk) == 0
}

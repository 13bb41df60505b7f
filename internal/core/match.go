package core

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/record"
	"repro/internal/storage/file"
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

var matchOpNames = [...]string{
	MatchJoin: "join", MatchSemi: "semijoin", MatchAnti: "antijoin",
	MatchLeftOuter: "leftouter", MatchRightOuter: "rightouter", MatchFullOuter: "fullouter",
	MatchUnion: "union", MatchIntersect: "intersect",
	MatchDifference: "difference", MatchAntiDifference: "antidifference",
}

// String names the operation, or is empty for no such operation.
func (op MatchOp) String() string { return enumName(matchOpNames[:], int(op)) }

// enumName is names[i], or empty for an i out of range.
func enumName(names []string, i int) string {
	if i < 0 || i >= len(names) {
		return ""
	}
	return names[i]
}

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

// checkKeys rejects a pair of keys that the match and division operators
// cannot pair up: unequal or zero arity, a field out of range, or two
// paired fields of different types. Keys are hashed and grouped on their
// encoded bytes, so an int never meets an equal float, and comparing a
// string with an int panics (record.CompareKeys).
func checkKeys(op string, ls, rs *record.Schema, lk, rk record.Key) error {
	if len(lk) != len(rk) || len(lk) == 0 {
		return fmt.Errorf("core: %s: bad key arity %d/%d", op, len(lk), len(rk))
	}
	for i := range lk {
		if lk[i] < 0 || lk[i] >= ls.NumFields() || rk[i] < 0 || rk[i] >= rs.NumFields() {
			return fmt.Errorf("core: %s: key field %d/%d out of range", op, lk[i], rk[i])
		}
		if l, r := ls.Field(lk[i]), rs.Field(rk[i]); l.Type != r.Type {
			return fmt.Errorf("core: %s: key fields %s (%s) and %s (%s) differ in type", op, l.Name, l.Type, r.Name, r.Type)
		}
	}
	return nil
}

// combiner creates the output records of the operators that concatenate
// a left with a right record — the joins of both match algorithms and
// nested loops — without decoding either: the two images are joined
// straight into a slot of the operator's temp file (or arena). zeroL and
// zeroR are the all-zero images outer joins pass for the missing side
// (Volcano has no SQL NULL).
type combiner struct {
	ls, rs       *record.Schema
	zeroL, zeroR []byte
	w            *ResultWriter
	scratch      []byte // combineIf's candidate image
}

func newCombiner(ls, rs *record.Schema) combiner {
	return combiner{ls: ls, rs: rs, zeroL: ls.Zero(), zeroR: rs.Zero()}
}

// combine materialises the concatenation of l and r, pinned unless it is
// in an arena.
func (c *combiner) combine(l, r []byte) (Rec, error) {
	out, err := c.w.Reserve(record.ConcatSize(c.ls, l, c.rs, r))
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
	n := record.ConcatSize(c.ls, l, c.rs, r)
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
// its consumer. Emptying it keeps the backing array, so a join that queues a
// record or two per probe allocates nothing in the steady state.
type recQueue struct {
	recs []Rec
	head int
}

func (q *recQueue) push(r Rec) { q.recs = append(q.recs, r) }

// moveTo moves queued records into b until it is full; the rest stay
// queued for the next call, so a step that queued more than the batch
// target does not overshoot it.
func (q *recQueue) moveTo(b *Batch) {
	for ; q.head < len(q.recs) && !b.Full(); q.head++ {
		b.Append(q.recs[q.head])
	}
	if q.head == len(q.recs) {
		q.recs, q.head = q.recs[:0], 0
	}
}

func (q *recQueue) len() int { return len(q.recs) - q.head }

// release unfixes every queued record.
func (q *recQueue) release() {
	file.UnfixBatch(q.recs[q.head:])
	q.recs, q.head = q.recs[:0], 0
}

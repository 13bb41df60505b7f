package core

import (
	"bytes"
	"fmt"

	"repro/internal/record"
)

// Relational division (quotient): given a dividend R with quotient fields
// Q and divisor fields D, and a divisor S, output the distinct Q values q
// such that (q, s) ∈ R for every s ∈ S. Volcano's hash-division algorithm
// [Graefe 1989] builds a table of divisor tuples and a table of quotient
// candidates, each with a bit set of |S| bits however few of S it matches
// (memory grows with candidates × |S|, not with the matching pairs); the
// paper's §4.4 reports parallelising it via the exchange operator with
// both divisor and quotient partitioning.

// HashDivision is the hash-division iterator.
type HashDivision struct {
	env      *Env
	dividend Iterator
	divisor  Iterator
	quotKey  record.Key // quotient fields in the dividend
	quotK    keyer      // quotKey's, in the dividend
	divK     keyer      // the divisor fields', in the dividend
	divisorK keyer      // the divisor's fields matching divK's pairwise
	schema   *record.Schema

	// partial, when true, emits (quotient, matchedCount) pairs instead of
	// filtering on a full match. This is the building block for the
	// divisor-partitioned parallel variant: each partition counts matches
	// against its local divisor subset, and a global aggregation sums the
	// counts and compares with the full divisor cardinality.
	partial bool

	w        *ResultWriter
	divisors keyTable   // the divisor's distinct tuples
	quots    keyTable   // the quotient candidates
	cands    []quotient // by quots entry: first-seen order
	emit     int
	vals     []record.Value // scratch: a partial-mode output row
	opState
}

type quotient struct {
	kv   []record.Value
	seen bitset // the divisors entries matched
}

// NewHashDivision constructs the operator. divisorKey are the fields of
// the divisor input matching the dividend's divKey fields (pairwise).
func NewHashDivision(env *Env, dividend, divisor Iterator, quotKey, divKey, divisorKey record.Key) (*HashDivision, error) {
	if err := checkKeys("division", dividend.Schema(), divisor.Schema(), divKey, divisorKey); err != nil {
		return nil, err
	}
	if len(quotKey) == 0 {
		return nil, fmt.Errorf("core: division: empty quotient key")
	}
	d := &HashDivision{env: env, dividend: dividend, divisor: divisor, quotKey: quotKey}
	var err error
	if d.schema, err = d.outputSchema(); err != nil {
		return nil, err
	}
	in := dividend.Schema()
	d.quotK, d.divK, d.divisorK = newKeyer(in, quotKey), newKeyer(in, divKey), newKeyer(divisor.Schema(), divisorKey)
	return d, nil
}

func (d *HashDivision) outputSchema() (*record.Schema, error) {
	in := d.dividend.Schema()
	var fields []record.Field
	for _, q := range d.quotKey {
		if q < 0 || q >= in.NumFields() {
			return nil, fmt.Errorf("core: division: quotient field %d out of range", q)
		}
		fields = append(fields, in.Field(q))
	}
	if d.partial {
		fields = append(fields, record.Field{Name: "matched", Type: record.TInt})
	}
	return record.NewSchema(fields...)
}

// Schema implements Iterator.
func (d *HashDivision) Schema() *record.Schema { return d.schema }

// SetPartial toggles partial-count mode (the divisor-partitioning
// building block) and recomputes the output schema accordingly.
func (d *HashDivision) SetPartial(p bool) error {
	if d.open {
		return errState("hashdivision", "SetPartial while open")
	}
	d.partial = p
	schema, err := d.outputSchema()
	if err != nil {
		return err
	}
	d.schema = schema
	return nil
}

// Open implements Iterator: builds the divisor table, then consumes the
// dividend accumulating per-quotient divisor bit sets.
func (d *HashDivision) Open() error { return d.opening("hashdivision", d.openImpl) }

func (d *HashDivision) openImpl() error {
	w, err := d.env.NewResultWriter("hashdiv", d.schema)
	if err != nil {
		return err
	}
	d.w = w

	// Phase 1: number the divisor tuples.
	if d.divisors, err = numberDivisors(d.env, d.divisor, &d.divisorK); err != nil {
		d.abort()
		return err
	}

	// Phase 2: scan the dividend, marking (quotient, divisor) pairs.
	in := d.dividend.Schema()
	err = drainInput(d.dividend, d.env.BatchSize(), func(recs []Rec) error {
		for _, r := range recs {
			idx := d.divisors.find(d.divK.of(r.Data))
			if idx < 0 {
				// Dividend rows with divisor values outside S are irrelevant.
				continue
			}
			e, exists := d.quots.insert(d.quotK.of(r.Data))
			if !exists {
				d.cands = append(d.cands, quotient{kv: in.KeyValues(r.Data, d.quotKey), seen: make(bitset, (d.divisors.len()+63)/64)})
			}
			d.cands[e].seen.add(idx)
		}
		return nil
	})
	if err != nil {
		d.abort()
		return err
	}
	d.emit = 0
	return nil
}

// NextBatch implements Iterator: emits qualifying quotients (or, in
// Partial mode, every candidate with its match count).
func (d *HashDivision) NextBatch(b *Batch) error {
	if !d.open {
		return errState("hashdivision", "next before open")
	}
	return fill(b, d.next)
}

func (d *HashDivision) next() (Rec, bool, error) {
	for d.emit < len(d.cands) {
		q := &d.cands[d.emit]
		d.emit++
		if d.partial {
			d.vals = append(append(d.vals[:0], q.kv...), record.Int(int64(q.seen.count())))
			r, err := d.w.Write(d.vals)
			return r, err == nil, err
		}
		if n := d.divisors.len(); n > 0 && q.seen.count() == n {
			r, err := d.w.Write(q.kv)
			return r, err == nil, err
		}
	}
	return Rec{}, false, nil
}

// Close implements Iterator.
func (d *HashDivision) Close() error {
	if ok, err := d.closing("hashdivision"); !ok {
		return err
	}
	d.divisors, d.quots, d.cands = keyTable{}, keyTable{}, nil
	err := d.w.Dispose()
	d.w = nil
	return err
}

func (d *HashDivision) abort() {
	d.divisors, d.quots, d.cands = keyTable{}, keyTable{}, nil
	if d.w != nil {
		_ = d.w.Dispose()
		d.w = nil
	}
}

// numberDivisors numbers the divisor's distinct tuples, keyed by k.
func numberDivisors(env *Env, divisor Iterator, k *keyer) (t keyTable, err error) {
	err = drainInput(divisor, env.BatchSize(), func(recs []Rec) error {
		for _, r := range recs {
			t.insert(k.of(r.Data))
		}
		return nil
	})
	return t, err
}

// SortDivision is the sort-based division baseline: the dividend is sorted
// on the quotient fields, so candidate quotients are processed one group
// at a time with memory proportional to the divisor only.
type SortDivision struct {
	env      *Env
	dividend Iterator // wrapped in a Sort on quotKey at construction
	divisor  Iterator
	quotK    keyer // as HashDivision's
	divK     keyer
	divisorK keyer
	schema   *record.Schema

	w        *ResultWriter
	src      *Cursor  // the sorted dividend
	divisors keyTable // the divisor's distinct tuples
	cur      []record.Value
	curKey   []byte // cur's key bytes
	curSeen  bitset // the divisors entries cur matched
	done     bool
	opState
}

// NewSortDivision constructs the operator; the dividend is sorted on its
// quotient fields internally.
func NewSortDivision(env *Env, dividend, divisor Iterator, quotKey, divKey, divisorKey record.Key) (*SortDivision, error) {
	if err := checkKeys("division", dividend.Schema(), divisor.Schema(), divKey, divisorKey); err != nil {
		return nil, err
	}
	if len(quotKey) == 0 {
		return nil, fmt.Errorf("core: division: empty quotient key")
	}
	in := dividend.Schema()
	var fields []record.Field
	for _, q := range quotKey {
		if q < 0 || q >= in.NumFields() {
			return nil, fmt.Errorf("core: division: quotient field %d out of range", q)
		}
		fields = append(fields, in.Field(q))
	}
	schema, err := record.NewSchema(fields...)
	if err != nil {
		return nil, err
	}
	spec := make([]record.SortSpec, len(quotKey))
	for i, f := range quotKey {
		spec[i] = record.SortSpec{Field: f}
	}
	return &SortDivision{
		env: env, dividend: NewSort(env, dividend, spec), divisor: divisor,
		quotK: newKeyer(in, quotKey), divK: newKeyer(in, divKey),
		divisorK: newKeyer(divisor.Schema(), divisorKey), schema: schema,
	}, nil
}

// Schema implements Iterator.
func (d *SortDivision) Schema() *record.Schema { return d.schema }

// Open implements Iterator.
func (d *SortDivision) Open() error { return d.opening("sortdivision", d.openImpl) }

func (d *SortDivision) openImpl() error {
	w, err := d.env.NewResultWriter("sortdiv", d.schema)
	if err != nil {
		return err
	}
	if d.divisors, err = numberDivisors(d.env, d.divisor, &d.divisorK); err == nil {
		err = d.dividend.Open()
	}
	if err != nil {
		_ = w.Dispose()
		return err
	}
	d.w = w
	d.src = NewCursor(d.dividend, d.env.BatchSize())
	d.cur = nil
	d.curSeen = make(bitset, (d.divisors.len()+63)/64)
	d.done = false
	return nil
}

// NextBatch implements Iterator.
func (d *SortDivision) NextBatch(b *Batch) error {
	if !d.open {
		return errState("sortdivision", "next before open")
	}
	return fill(b, d.nextGroup)
}

// nextGroup consumes the sorted dividend up to the next finished quotient
// group that matched every divisor tuple.
func (d *SortDivision) nextGroup() (Rec, bool, error) {
	if d.done {
		return Rec{}, false, nil
	}
	in := d.dividend.Schema()
	for {
		r, ok, err := d.src.Pull()
		if err != nil {
			return Rec{}, false, err
		}
		if !ok {
			d.done = true
			if d.cur != nil && d.divisors.len() > 0 && d.curSeen.count() == d.divisors.len() {
				out, err := d.w.Write(d.cur)
				return out, err == nil, err
			}
			return Rec{}, false, nil
		}
		qk, _ := d.quotK.of(r.Data)
		var finished []record.Value
		if d.cur == nil || !bytes.Equal(qk, d.curKey) {
			if d.cur != nil && d.divisors.len() > 0 && d.curSeen.count() == d.divisors.len() {
				finished = d.cur
			}
			d.cur, d.curKey = in.KeyValues(r.Data, d.quotK.key), append(d.curKey[:0], qk...)
			clear(d.curSeen)
		}
		if e := d.divisors.find(d.divK.of(r.Data)); e >= 0 {
			d.curSeen.add(e)
		}
		r.Unfix()
		if finished != nil {
			out, err := d.w.Write(finished)
			return out, err == nil, err
		}
	}
}

// Close implements Iterator.
func (d *SortDivision) Close() error {
	if ok, err := d.closing("sortdivision"); !ok {
		return err
	}
	d.src.Release()
	err := d.dividend.Close()
	if derr := d.w.Dispose(); err == nil {
		err = derr
	}
	d.w = nil
	return err
}

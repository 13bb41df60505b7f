package core

import (
	"fmt"

	"repro/internal/record"
)

// Relational division (quotient): given a dividend R with quotient fields
// Q and divisor fields D, and a divisor S, output the distinct Q values q
// such that (q, s) ∈ R for every s ∈ S. Volcano's hash-division algorithm
// [Graefe 1989] builds a table of divisor tuples and a table of quotient
// candidates with per-divisor bit sets; the paper's §4.4 reports
// parallelising it via the exchange operator with both divisor and
// quotient partitioning.

// HashDivision is the hash-division iterator.
type HashDivision struct {
	env        *Env
	dividend   Iterator
	divisor    Iterator
	quotKey    record.Key // quotient fields in the dividend
	divKey     record.Key // divisor fields in the dividend
	divisorKey record.Key // fields in the divisor matching divKey pairwise
	schema     *record.Schema

	// partial, when true, emits (quotient, matchedCount) pairs instead of
	// filtering on a full match. This is the building block for the
	// divisor-partitioned parallel variant: each partition counts matches
	// against its local divisor subset, and a global aggregation sums the
	// counts and compares with the full divisor cardinality.
	partial bool

	w     *ResultWriter
	order []string
	table map[string]*quotient
	ndiv  int
	emit  int
	opState
}

type quotient struct {
	kv   []record.Value
	seen map[int]struct{}
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
	d := &HashDivision{
		env: env, dividend: dividend, divisor: divisor,
		quotKey: quotKey, divKey: divKey, divisorKey: divisorKey,
	}
	var err error
	d.schema, err = d.outputSchema()
	if err != nil {
		return nil, err
	}
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
	divisorIdx := make(map[string]int)
	ds := d.divisor.Schema()
	err = drainInput(d.divisor, d.env.BatchSize(), func(recs []Rec) error {
		for _, r := range recs {
			key := string(ds.AppendKey(nil, r.Data, d.divisorKey))
			if _, dup := divisorIdx[key]; !dup {
				divisorIdx[key] = len(divisorIdx)
			}
		}
		return nil
	})
	if err != nil {
		d.abort()
		return err
	}
	d.ndiv = len(divisorIdx)

	// Phase 2: scan the dividend, marking (quotient, divisor) pairs.
	d.table = make(map[string]*quotient)
	in := d.dividend.Schema()
	err = drainInput(d.dividend, d.env.BatchSize(), func(recs []Rec) error {
		for _, r := range recs {
			idx, inDivisor := divisorIdx[string(in.AppendKey(nil, r.Data, d.divKey))]
			if !inDivisor {
				// Dividend rows with divisor values outside S are irrelevant.
				continue
			}
			qk := string(in.AppendKey(nil, r.Data, d.quotKey))
			q, exists := d.table[qk]
			if !exists {
				q = &quotient{kv: in.KeyValues(r.Data, d.quotKey), seen: make(map[int]struct{})}
				d.table[qk] = q
				d.order = append(d.order, qk)
			}
			q.seen[idx] = struct{}{}
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
	for d.emit < len(d.order) {
		q := d.table[d.order[d.emit]]
		d.emit++
		if d.partial {
			vals := append(append([]record.Value(nil), q.kv...), record.Int(int64(len(q.seen))))
			r, err := d.w.Write(vals)
			return r, err == nil, err
		}
		if len(q.seen) == d.ndiv && d.ndiv > 0 {
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
	d.table = nil
	d.order = nil
	err := d.w.Dispose()
	d.w = nil
	return err
}

func (d *HashDivision) abort() {
	d.table = nil
	d.order = nil
	if d.w != nil {
		_ = d.w.Dispose()
		d.w = nil
	}
}

// SortDivision is the sort-based division baseline: the dividend is sorted
// on the quotient fields, so candidate quotients are processed one group
// at a time with memory proportional to the divisor only.
type SortDivision struct {
	env        *Env
	dividend   Iterator // wrapped in a Sort on quotKey at construction
	divisor    Iterator
	quotKey    record.Key
	divKey     record.Key
	divisorKey record.Key
	schema     *record.Schema

	w        *ResultWriter
	src      *Cursor // the sorted dividend
	divisor2 map[string]struct{}
	cur      []record.Value
	curKey   string // AppendKey rendering of cur
	curSeen  map[string]struct{}
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
		quotKey: quotKey, divKey: divKey, divisorKey: divisorKey, schema: schema,
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
	d.divisor2 = make(map[string]struct{})
	ds := d.divisor.Schema()
	err = drainInput(d.divisor, d.env.BatchSize(), func(recs []Rec) error {
		for _, r := range recs {
			d.divisor2[string(ds.AppendKey(nil, r.Data, d.divisorKey))] = struct{}{}
		}
		return nil
	})
	if err == nil {
		err = d.dividend.Open()
	}
	if err != nil {
		_ = w.Dispose()
		return err
	}
	d.w = w
	d.src = NewCursor(d.dividend, d.env.BatchSize())
	d.cur = nil
	d.curSeen = nil
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
			if d.cur != nil && len(d.curSeen) == len(d.divisor2) && len(d.divisor2) > 0 {
				out, err := d.w.Write(d.cur)
				return out, err == nil, err
			}
			return Rec{}, false, nil
		}
		qk := string(in.AppendKey(nil, r.Data, d.quotKey))
		var finished []record.Value
		if d.cur == nil || qk != d.curKey {
			if d.cur != nil && len(d.curSeen) == len(d.divisor2) && len(d.divisor2) > 0 {
				finished = d.cur
			}
			d.cur, d.curKey = in.KeyValues(r.Data, d.quotKey), qk
			d.curSeen = make(map[string]struct{})
		}
		divK := string(in.AppendKey(nil, r.Data, d.divKey))
		if _, inS := d.divisor2[divK]; inS {
			d.curSeen[divK] = struct{}{}
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

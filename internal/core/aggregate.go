package core

import (
	"bytes"
	"cmp"
	"fmt"
	"math"

	"repro/internal/record"
)

// AggFunc enumerates aggregate functions.
type AggFunc uint8

// Aggregate functions.
const (
	AggCount AggFunc = iota
	AggSum
	AggMin
	AggMax
	AggAvg
)

var aggNames = [...]string{
	AggCount: "count", AggSum: "sum", AggMin: "min", AggMax: "max", AggAvg: "avg",
}

// String names the aggregate function, or is empty for no such function.
func (a AggFunc) String() string { return enumName(aggNames[:], int(a)) }

// AggSpec is one aggregate column: a function over an input field.
// AggCount ignores Field.
type AggSpec struct {
	Func  AggFunc
	Field int
	Name  string
}

// aggState accumulates one aggregate for one group, in the fields its fold uses.
type aggState struct {
	count int64
	sumI  int64
	sumF  float64
	// min and max keep their extreme in the field's type: ints and booleans
	// in i, floats in f, strings and bytes in s (owned, its storage reused).
	i   int64
	f   float64
	s   []byte
	has bool
}

// aggFold is an AggSpec compiled for its input schema: add folds a record
// image into a state, reading the field in its own type at its offset (a
// string through the variable area). Both aggregation algorithms use it.
type aggFold struct {
	fn  AggFunc
	t   record.Type // the field's type; TInt for count
	add func(st *aggState, data []byte)
}

// compileAggs checks aggs against the input schema and compiles each into
// its fold, and builds the output schema: group fields, then aggregates.
func compileAggs(in *record.Schema, groupBy record.Key, aggs []AggSpec) ([]aggFold, *record.Schema, error) {
	var fields []record.Field
	for _, g := range groupBy {
		if g < 0 || g >= in.NumFields() {
			return nil, nil, fmt.Errorf("core: aggregate: group field %d out of range", g)
		}
		fields = append(fields, in.Field(g))
	}
	folds := make([]aggFold, len(aggs))
	for k, a := range aggs {
		f, err := compileFold(in, a)
		if err != nil {
			return nil, nil, err
		}
		name, t := a.Name, f.t
		if name == "" && a.Func == AggCount {
			name = "count"
		} else if name == "" {
			name = fmt.Sprintf("%s_%s", a.Func, in.Field(a.Field).Name)
		}
		if a.Func == AggAvg {
			t = record.TFloat
		}
		folds[k], fields = f, append(fields, record.Field{Name: name, Type: t})
	}
	schema, err := record.NewSchema(fields...)
	return folds, schema, err
}

// compileFold checks one AggSpec and compiles it.
func compileFold(in *record.Schema, a AggSpec) (aggFold, error) {
	if a.Func == AggCount {
		return aggFold{fn: AggCount, t: record.TInt, add: func(st *aggState, _ []byte) { st.count++ }}, nil
	}
	if a.Field < 0 || a.Field >= in.NumFields() {
		return aggFold{}, fmt.Errorf("core: aggregate: field %d out of range", a.Field)
	}
	t, off := in.Field(a.Field).Type, in.Offset(a.Field)
	if (a.Func == AggSum || a.Func == AggAvg) && t != record.TInt && t != record.TFloat {
		return aggFold{}, fmt.Errorf("core: aggregate: %s over non-numeric field %q", a.Func, in.Field(a.Field).Name)
	}
	f := aggFold{fn: a.Func, t: t}
	switch {
	case a.Func == AggSum && t == record.TInt:
		f.add = func(st *aggState, d []byte) { st.sumI += record.IntAt(d, off) }
	case a.Func == AggSum:
		f.add = func(st *aggState, d []byte) { st.sumF += record.FloatAt(d, off) }
	case a.Func == AggAvg && t == record.TInt:
		f.add = func(st *aggState, d []byte) { st.count++; st.sumF += float64(record.IntAt(d, off)) }
	case a.Func == AggAvg:
		f.add = func(st *aggState, d []byte) { st.count++; st.sumF += record.FloatAt(d, off) }
	case a.Func == AggMin:
		f.add = extremeFold(in, a.Field, -1)
	default:
		f.add = extremeFold(in, a.Field, 1)
	}
	return f, nil
}

// extremeFold is min (want -1) or max (want 1) over one field: a value
// replaces the state's only when it orders strictly before (after) it, so
// of equal values — -0.0 and 0.0 — the first seen stays. Floats order as
// record.CompareFloats, NaN first.
func extremeFold(in *record.Schema, field, want int) func(*aggState, []byte) {
	off := in.Offset(field)
	switch in.Field(field).Type {
	case record.TInt:
		return func(st *aggState, d []byte) {
			if v := record.IntAt(d, off); !st.has || cmp.Compare(v, st.i) == want {
				st.i, st.has = v, true
			}
		}
	case record.TFloat:
		return func(st *aggState, d []byte) {
			if v := record.FloatAt(d, off); !st.has || record.CompareFloats(v, st.f) == want {
				st.f, st.has = v, true
			}
		}
	case record.TBool: // encoded as 0 or 1
		return func(st *aggState, d []byte) {
			if v := int64(d[off]); !st.has || cmp.Compare(v, st.i) == want {
				st.i, st.has = v, true
			}
		}
	default:
		return func(st *aggState, d []byte) {
			if v := in.GetBytes(d, field); !st.has || bytes.Compare(v, st.s) == want {
				st.s, st.has = append(st.s[:0], v...), true
			}
		}
	}
}

// result renders the aggregate output value.
func (f *aggFold) result(st *aggState) record.Value {
	switch f.fn {
	case AggCount:
		return record.Int(st.count)
	case AggSum:
		if f.t == record.TFloat {
			return record.Float(st.sumF)
		}
		return record.Int(st.sumI)
	case AggAvg:
		if st.count == 0 {
			return record.Float(math.NaN())
		}
		return record.Float(st.sumF / float64(st.count))
	}
	switch f.t {
	case record.TInt:
		return record.Int(st.i)
	case record.TFloat:
		return record.Float(st.f)
	case record.TBool:
		return record.Bool(st.i != 0)
	}
	return record.Value{Kind: f.t, S: st.s}
}

// HashAggregate is hash-based grouping and aggregation; with no aggregate
// specs it performs duplicate elimination on the group key. It releases
// every input record once folded, so it opts its input into an arena.
type HashAggregate struct {
	env    *Env
	input  Iterator
	keyer  keyer // the group key's
	folds  []aggFold
	schema *record.Schema

	w      *ResultWriter
	table  keyTable
	groups []group // by table entry: first-seen order
	emit   int
	vals   []record.Value // scratch: the output row being written
	opState
}

type group struct {
	keyVals []record.Value
	states  []aggState
}

// newGroup starts the group of the record's key: the one allocation an
// aggregation makes per group rather than per record.
func newGroup(in *record.Schema, data []byte, groupBy record.Key, folds []aggFold) *group {
	return &group{keyVals: in.KeyValues(data, groupBy), states: make([]aggState, len(folds))}
}

// accumulate folds one input record into the group's aggregate states.
func (g *group) accumulate(data []byte, folds []aggFold) {
	for i := range folds {
		folds[i].add(&g.states[i], data)
	}
}

// appendRow appends the group's output row — key values, then aggregate
// results — to vals.
func (g *group) appendRow(vals []record.Value, folds []aggFold) []record.Value {
	vals = append(vals, g.keyVals...)
	for i := range folds {
		vals = append(vals, folds[i].result(&g.states[i]))
	}
	return vals
}

// NewHashAggregate constructs the operator.
func NewHashAggregate(env *Env, input Iterator, groupBy record.Key, aggs []AggSpec) (*HashAggregate, error) {
	folds, schema, err := compileAggs(input.Schema(), groupBy, aggs)
	if err != nil {
		return nil, err
	}
	UseArena(input)
	return &HashAggregate{env: env, input: input, keyer: newKeyer(input.Schema(), groupBy), folds: folds, schema: schema}, nil
}

// Schema implements Iterator.
func (h *HashAggregate) Schema() *record.Schema { return h.schema }

// Open implements Iterator: consumes the whole input, building groups.
func (h *HashAggregate) Open() error { return h.opening("hashaggregate", h.openImpl) }

func (h *HashAggregate) openImpl() error {
	w, err := h.env.NewResultWriter("hashagg", h.schema)
	if err != nil {
		return err
	}
	h.table, h.groups = keyTable{}, nil
	err = drainInput(h.input, h.env.BatchSize(), func(recs []Rec) error {
		for _, r := range recs {
			h.absorb(r.Data)
		}
		return nil
	})
	if err != nil {
		_ = w.Dispose()
		return err
	}
	h.w, h.emit = w, 0
	return nil
}

// absorb folds one input record into its group. Only a record that
// starts a group allocates.
func (h *HashAggregate) absorb(data []byte) {
	e, exists := h.table.insert(h.keyer.of(data))
	if !exists {
		h.groups = append(h.groups, *newGroup(h.keyer.schema, data, h.keyer.key, h.folds))
	}
	h.groups[e].accumulate(data, h.folds)
}

// emitGroup materialises the next group's output record.
func (h *HashAggregate) emitGroup() (Rec, error) {
	g := &h.groups[h.emit]
	h.emit++
	h.vals = g.appendRow(h.vals[:0], h.folds)
	return h.w.Write(h.vals)
}

// NextBatch implements Iterator: one call emits a whole run of groups in
// first-seen order.
func (h *HashAggregate) NextBatch(b *Batch) error {
	if !h.open {
		return errState("hashaggregate", "next before open")
	}
	b.Reset()
	for !b.Full() && h.emit < len(h.groups) {
		r, err := h.emitGroup()
		if err != nil {
			b.Release()
			return err
		}
		b.Append(r)
	}
	return nil
}

// Close implements Iterator.
func (h *HashAggregate) Close() error {
	if ok, err := h.closing("hashaggregate"); !ok {
		return err
	}
	h.table, h.groups = keyTable{}, nil
	err := h.w.Dispose()
	h.w = nil
	return err
}

// SortAggregate is the sort-based aggregation algorithm: the input must
// arrive sorted on the group-by fields; groups are emitted on key change,
// so the operator uses constant memory.
type SortAggregate struct {
	env     *Env
	input   Iterator
	groupBy record.Key
	folds   []aggFold
	schema  *record.Schema

	w      *ResultWriter
	cur    *group
	curKey []byte         // the current group's key
	key    []byte         // scratch: the incoming record's key
	vals   []record.Value // scratch: the output row being written
	done   bool
	src    *Cursor // the sorted input
	opState
}

// NewSortAggregate constructs the operator over a sorted input.
func NewSortAggregate(env *Env, input Iterator, groupBy record.Key, aggs []AggSpec) (*SortAggregate, error) {
	folds, schema, err := compileAggs(input.Schema(), groupBy, aggs)
	if err != nil {
		return nil, err
	}
	return &SortAggregate{env: env, input: input, groupBy: groupBy, folds: folds, schema: schema}, nil
}

// Schema implements Iterator.
func (s *SortAggregate) Schema() *record.Schema { return s.schema }

// Open implements Iterator.
func (s *SortAggregate) Open() error { return s.opening("sortaggregate", s.openImpl) }

func (s *SortAggregate) openImpl() error {
	w, err := s.env.NewResultWriter("sortagg", s.schema)
	if err != nil {
		return err
	}
	if err := s.input.Open(); err != nil {
		_ = w.Dispose()
		return err
	}
	s.w = w
	s.cur = nil
	s.done = false
	s.src = NewCursor(s.input, s.env.BatchSize())
	return nil
}

// NextBatch implements Iterator: one call emits a whole run of finished
// groups.
func (s *SortAggregate) NextBatch(b *Batch) error {
	if !s.open {
		return errState("sortaggregate", "next before open")
	}
	return fill(b, s.nextGroup)
}

// nextGroup emits the next finished group, consuming input until a key
// change or end of stream.
func (s *SortAggregate) nextGroup() (Rec, bool, error) {
	if s.done {
		return Rec{}, false, nil
	}
	in := s.input.Schema()
	for {
		r, ok, err := s.src.Pull()
		if err != nil {
			return Rec{}, false, err
		}
		if !ok {
			s.done = true
			if s.cur == nil {
				return Rec{}, false, nil
			}
			out, err := s.emit(s.cur)
			s.cur = nil
			return out, true, err
		}
		s.key = in.AppendKey(s.key[:0], r.Data, s.groupBy)
		finished := s.cur
		if finished == nil || !bytes.Equal(s.key, s.curKey) {
			// Key change: start a new group; its key becomes the one to
			// compare against and the old buffer the next scratch.
			s.cur = newGroup(in, r.Data, s.groupBy, s.folds)
			s.key, s.curKey = s.curKey, s.key
		} else {
			finished = nil
		}
		s.cur.accumulate(r.Data, s.folds)
		r.Unfix()
		if finished != nil {
			out, err := s.emit(finished)
			return out, true, err
		}
	}
}

func (s *SortAggregate) emit(g *group) (Rec, error) {
	s.vals = g.appendRow(s.vals[:0], s.folds)
	return s.w.Write(s.vals)
}

// Close implements Iterator.
func (s *SortAggregate) Close() error {
	if ok, err := s.closing("sortaggregate"); !ok {
		return err
	}
	s.src.Release()
	err := s.input.Close()
	if derr := s.w.Dispose(); err == nil {
		err = derr
	}
	s.w = nil
	return err
}

// NewHashDistinct performs duplicate elimination on the whole tuple using
// the hash-based aggregation algorithm.
func NewHashDistinct(env *Env, input Iterator) (*HashAggregate, error) {
	return NewHashAggregate(env, input, allFields(input.Schema()), nil)
}

// NewSortDistinct performs duplicate elimination on the whole tuple using
// the sort-based algorithm; the input is wrapped in a Sort on all fields.
func NewSortDistinct(env *Env, input Iterator) (*SortAggregate, error) {
	key := allFields(input.Schema())
	spec := make([]record.SortSpec, len(key))
	for i, f := range key {
		spec[i] = record.SortSpec{Field: f}
	}
	return NewSortAggregate(env, NewSort(env, input, spec), key, nil)
}

func allFields(s *record.Schema) record.Key {
	key := make(record.Key, s.NumFields())
	for i := range key {
		key[i] = i
	}
	return key
}

package core

import (
	"bytes"
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

var aggNames = map[AggFunc]string{
	AggCount: "count", AggSum: "sum", AggMin: "min", AggMax: "max", AggAvg: "avg",
}

// String names the aggregate function.
func (a AggFunc) String() string { return aggNames[a] }

// AggSpec is one aggregate column: a function over an input field.
// AggCount ignores Field.
type AggSpec struct {
	Func  AggFunc
	Field int
	Name  string
}

// aggState accumulates one aggregate for one group.
type aggState struct {
	count int64
	sumI  int64
	sumF  float64
	minV  record.Value
	maxV  record.Value
	has   bool
}

func (a *aggState) add(v record.Value) {
	a.count++
	switch v.Kind {
	case record.TInt:
		a.sumI += v.I
		a.sumF += float64(v.I)
	case record.TFloat:
		a.sumF += v.F
	}
	if !a.has {
		a.minV, a.maxV, a.has = v.Copy(), v.Copy(), true
		return
	}
	if record.CompareValues(v, a.minV) < 0 {
		a.minV = v.Copy()
	}
	if record.CompareValues(v, a.maxV) > 0 {
		a.maxV = v.Copy()
	}
}

// result renders the aggregate output value.
func (a *aggState) result(f AggFunc, fieldType record.Type) record.Value {
	switch f {
	case AggCount:
		return record.Int(a.count)
	case AggSum:
		if fieldType == record.TFloat {
			return record.Float(a.sumF)
		}
		return record.Int(a.sumI)
	case AggMin:
		if !a.has {
			return record.Value{Kind: fieldType}
		}
		return a.minV
	case AggMax:
		if !a.has {
			return record.Value{Kind: fieldType}
		}
		return a.maxV
	case AggAvg:
		if a.count == 0 {
			return record.Float(math.NaN())
		}
		return record.Float(a.sumF / float64(a.count))
	}
	return record.Value{}
}

// aggOutputSchema builds the output schema: group fields then aggregates.
func aggOutputSchema(in *record.Schema, groupBy record.Key, aggs []AggSpec) (*record.Schema, error) {
	var fields []record.Field
	for _, g := range groupBy {
		if g < 0 || g >= in.NumFields() {
			return nil, fmt.Errorf("core: aggregate: group field %d out of range", g)
		}
		fields = append(fields, in.Field(g))
	}
	for i, a := range aggs {
		name := a.Name
		if name == "" {
			if a.Func == AggCount {
				name = "count"
			} else {
				name = fmt.Sprintf("%s_%s", a.Func, in.Field(a.Field).Name)
			}
		}
		var t record.Type
		switch a.Func {
		case AggCount:
			t = record.TInt
		case AggAvg:
			t = record.TFloat
		default:
			if a.Field < 0 || a.Field >= in.NumFields() {
				return nil, fmt.Errorf("core: aggregate: agg %d field out of range", i)
			}
			t = in.Field(a.Field).Type
			if a.Func == AggSum && t != record.TInt && t != record.TFloat {
				return nil, fmt.Errorf("core: aggregate: sum over non-numeric field %q", in.Field(a.Field).Name)
			}
		}
		fields = append(fields, record.Field{Name: name, Type: t})
	}
	return record.NewSchema(fields...)
}

// validateAggInput checks the agg field kinds.
func validateAggInput(in *record.Schema, aggs []AggSpec) error {
	for _, a := range aggs {
		if a.Func == AggCount {
			continue
		}
		if a.Field < 0 || a.Field >= in.NumFields() {
			return fmt.Errorf("core: aggregate: field %d out of range", a.Field)
		}
		t := in.Field(a.Field).Type
		if (a.Func == AggSum || a.Func == AggAvg) && t != record.TInt && t != record.TFloat {
			return fmt.Errorf("core: aggregate: %s over non-numeric field %q", a.Func, in.Field(a.Field).Name)
		}
	}
	return nil
}

// HashAggregate is hash-based grouping and aggregation; with no aggregate
// specs it performs duplicate elimination on the group key.
type HashAggregate struct {
	env     *Env
	input   Iterator
	groupBy record.Key
	aggs    []AggSpec
	schema  *record.Schema

	w          *ResultWriter
	groups     map[string]*group
	order      []*group // first-seen order
	emit       int
	key        []byte         // scratch: the current record's group key
	vals       []record.Value // scratch: the output row being written
	open       bool
	openFailed bool // Open ran and failed: next Close is a no-op
}

type group struct {
	keyVals []record.Value
	states  []aggState
}

// newGroup starts the group of the record's key: the one allocation an
// aggregation makes per group rather than per record.
func newGroup(in *record.Schema, data []byte, groupBy record.Key, aggs []AggSpec) *group {
	return &group{keyVals: in.KeyValues(data, groupBy), states: make([]aggState, len(aggs))}
}

// accumulate folds one input record into the group's aggregate states.
func (g *group) accumulate(in *record.Schema, data []byte, aggs []AggSpec) error {
	for i, a := range aggs {
		if a.Func == AggCount {
			g.states[i].count++
			continue
		}
		v, err := in.Get(data, a.Field)
		if err != nil {
			return err
		}
		g.states[i].add(v)
	}
	return nil
}

// appendRow appends the group's output row — key values, then aggregate
// results — to vals.
func (g *group) appendRow(vals []record.Value, in *record.Schema, aggs []AggSpec) []record.Value {
	vals = append(vals, g.keyVals...)
	for i, a := range aggs {
		var t record.Type
		if a.Func != AggCount {
			t = in.Field(a.Field).Type
		}
		vals = append(vals, g.states[i].result(a.Func, t))
	}
	return vals
}

// NewHashAggregate constructs the operator.
func NewHashAggregate(env *Env, input Iterator, groupBy record.Key, aggs []AggSpec) (*HashAggregate, error) {
	if err := validateAggInput(input.Schema(), aggs); err != nil {
		return nil, err
	}
	schema, err := aggOutputSchema(input.Schema(), groupBy, aggs)
	if err != nil {
		return nil, err
	}
	return &HashAggregate{env: env, input: input, groupBy: groupBy, aggs: aggs, schema: schema}, nil
}

// Schema implements Iterator.
func (h *HashAggregate) Schema() *record.Schema { return h.schema }

// Open implements Iterator: consumes the whole input, building groups.
func (h *HashAggregate) Open() error {
	if h.open {
		return errState("hashaggregate", "already open")
	}
	err := h.openImpl()
	h.openFailed = err != nil
	return err
}

func (h *HashAggregate) openImpl() error {
	w, err := h.env.NewResultWriter("hashagg", h.schema)
	if err != nil {
		return err
	}
	h.w = w
	h.groups = make(map[string]*group)
	if err := h.input.Open(); err != nil {
		_ = h.w.Dispose()
		h.w = nil
		return err
	}
	in := h.input.Schema()
	src := NewCursor(h.input, h.env.BatchSize())
	for {
		r, ok, err := src.Pull()
		if err != nil {
			_ = h.input.Close()
			_ = h.w.Dispose()
			h.w = nil
			return err
		}
		if !ok {
			break
		}
		err = h.absorb(in, r.Data)
		r.Unfix()
		if err != nil {
			src.Release()
			_ = h.input.Close()
			_ = h.w.Dispose()
			h.w = nil
			return err
		}
	}
	if err := h.input.Close(); err != nil {
		_ = h.w.Dispose()
		h.w = nil
		return err
	}
	h.emit = 0
	h.open = true
	return nil
}

// absorb folds one input record into its group. The group is found by
// the key bytes in a reused scratch buffer — a lookup by string(h.key)
// does not allocate — so only a record that starts a group allocates.
func (h *HashAggregate) absorb(in *record.Schema, data []byte) error {
	h.key = in.AppendKey(h.key[:0], data, h.groupBy)
	g, exists := h.groups[string(h.key)]
	if !exists {
		g = newGroup(in, data, h.groupBy, h.aggs)
		h.groups[string(h.key)] = g
		h.order = append(h.order, g)
	}
	return g.accumulate(in, data, h.aggs)
}

// emitGroup materialises the next group's output record.
func (h *HashAggregate) emitGroup() (Rec, error) {
	g := h.order[h.emit]
	h.emit++
	h.vals = g.appendRow(h.vals[:0], h.input.Schema(), h.aggs)
	return h.w.Write(h.vals)
}

// NextBatch implements Iterator: one call emits a whole run of groups in
// first-seen order.
func (h *HashAggregate) NextBatch(b *Batch) error {
	if !h.open {
		return errState("hashaggregate", "next before open")
	}
	b.Reset()
	for !b.Full() && h.emit < len(h.order) {
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
	if h.openFailed {
		// A failed Open already unwound this operator's state; the
		// standard drain path closes unconditionally, and a state error
		// here would mask the root cause.
		h.openFailed = false
		return nil
	}
	if !h.open {
		return errState("hashaggregate", "close before open")
	}
	h.open = false
	h.groups = nil
	h.order = nil
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
	aggs    []AggSpec
	schema  *record.Schema

	w          *ResultWriter
	cur        *group
	curKey     []byte         // the current group's key
	key        []byte         // scratch: the incoming record's key
	vals       []record.Value // scratch: the output row being written
	done       bool
	open       bool
	openFailed bool    // Open ran and failed: next Close is a no-op
	src        *Cursor // the sorted input
}

// NewSortAggregate constructs the operator over a sorted input.
func NewSortAggregate(env *Env, input Iterator, groupBy record.Key, aggs []AggSpec) (*SortAggregate, error) {
	if err := validateAggInput(input.Schema(), aggs); err != nil {
		return nil, err
	}
	schema, err := aggOutputSchema(input.Schema(), groupBy, aggs)
	if err != nil {
		return nil, err
	}
	return &SortAggregate{env: env, input: input, groupBy: groupBy, aggs: aggs, schema: schema}, nil
}

// Schema implements Iterator.
func (s *SortAggregate) Schema() *record.Schema { return s.schema }

// Open implements Iterator.
func (s *SortAggregate) Open() error {
	if s.open {
		return errState("sortaggregate", "already open")
	}
	err := s.openImpl()
	s.openFailed = err != nil
	return err
}

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
	s.open = true
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
			s.cur = newGroup(in, r.Data, s.groupBy, s.aggs)
			s.key, s.curKey = s.curKey, s.key
		} else {
			finished = nil
		}
		err = s.cur.accumulate(in, r.Data, s.aggs)
		r.Unfix()
		if err != nil {
			return Rec{}, false, err
		}
		if finished != nil {
			out, err := s.emit(finished)
			return out, true, err
		}
	}
}

func (s *SortAggregate) emit(g *group) (Rec, error) {
	s.vals = g.appendRow(s.vals[:0], s.input.Schema(), s.aggs)
	return s.w.Write(s.vals)
}

// Close implements Iterator.
func (s *SortAggregate) Close() error {
	if s.openFailed {
		// A failed Open already unwound this operator's state; the
		// standard drain path closes unconditionally, and a state error
		// here would mask the root cause.
		s.openFailed = false
		return nil
	}
	if !s.open {
		return errState("sortaggregate", "close before open")
	}
	s.open = false
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

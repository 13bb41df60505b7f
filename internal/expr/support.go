package expr

import (
	"fmt"

	"repro/internal/record"
)

// Mode selects how a support function is realised (paper, §3): Compiled
// builds a tree of typed Go closures; Interpreted compiles to bytecode and
// runs the VM per record. Both are interchangeable behind the same function
// types, exactly as Volcano passes either machine code or interpreter +
// code through the same (function, argument) pair.
type Mode uint8

const (
	// Compiled realises support functions as typed Go closures.
	Compiled Mode = iota
	// Interpreted realises support functions as bytecode run by the VM.
	Interpreted
)

// String names the mode.
func (m Mode) String() string {
	if m == Interpreted {
		return "interpreted"
	}
	return "compiled"
}

// Predicate is a support function deciding whether a record qualifies.
type Predicate func(data []byte) (bool, error)

// NewPredicate builds a predicate from an expression. The expression must
// type-check to bool against the schema.
func NewPredicate(e Expr, s *record.Schema, mode Mode) (Predicate, error) {
	typ, err := e.TypeCheck(s)
	if err != nil {
		return nil, err
	}
	if typ != record.TBool {
		return nil, fmt.Errorf("expr: predicate %q has type %s, want bool", e, typ)
	}
	if mode != Interpreted {
		c := &closures{s: s}
		return finish(c, e, c.bools(e))
	}
	prog, err := CompileProgram(e, s)
	if err != nil {
		return nil, err
	}
	return func(d []byte) (bool, error) {
		v, err := prog.Eval(s, d)
		return v.B, err
	}, nil
}

// ParsePredicate parses src and builds a predicate against the schema.
func ParsePredicate(src string, s *record.Schema, mode Mode) (Predicate, error) {
	e, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return NewPredicate(e, s, mode)
}

// Projector is the support function of project operators: one typed
// column writer per output field writes the output record of an input
// record in place, into the image the operator reserved for the size Size
// returned. It keeps no per-call state: the caller owns the var-length
// payloads that pass from Size to Write. Input images are checked
// (record.Schema.Check), and a string or bytes column is a field or a
// literal, which cannot fail on one: only the fixed columns can fail.
type Projector struct {
	in, out *record.Schema
	fixed   []func(in, out []byte) error // int, float and bool columns, each at its offset
	vars    []func(in []byte) []byte     // string and bytes payloads, in field order
}

// NewProjector builds a projector evaluating the given expressions, and
// returns the output schema with the given field names (names may be nil,
// in which case columns are named c0, c1, ...).
func NewProjector(exprs []Expr, names []string, s *record.Schema, mode Mode) (*Projector, *record.Schema, error) {
	if names != nil && len(names) != len(exprs) {
		return nil, nil, fmt.Errorf("expr: %d names for %d expressions", len(names), len(exprs))
	}
	fields := make([]record.Field, len(exprs))
	for i, e := range exprs {
		typ, err := e.TypeCheck(s)
		if err != nil {
			return nil, nil, err
		}
		name := fmt.Sprintf("c%d", i)
		if names != nil {
			name = names[i]
		} else if id, ok := e.(*Ident); ok {
			name = id.Name
		}
		fields[i] = record.Field{Name: name, Type: typ}
	}
	out, err := record.NewSchema(fields...)
	if err != nil {
		return nil, nil, err
	}
	p := &Projector{in: s, out: out}
	for i, e := range exprs {
		if err := p.column(e, fields[i].Type, out.Offset(i), mode); err != nil {
			return nil, nil, err
		}
	}
	return p, out, nil
}

// column adds the writer of column e, of type typ, at byte offset off of
// the output record; interpreted, it writes the VM's boxed value.
func (p *Projector) column(e Expr, typ record.Type, off int, mode Mode) error {
	s, c := p.in, &closures{s: p.in}
	i, bare := field(e)
	switch {
	case mode == Interpreted:
		prog, err := CompileProgram(e, s)
		if err != nil {
			return err
		}
		eval := func(in []byte) (record.Value, error) { return prog.Eval(s, in) }
		if typ.Fixed() {
			p.fixed = append(p.fixed, writer(eval, off, record.PutValue))
		} else {
			// A field or a literal: its program cannot fail on a checked image.
			p.vars = append(p.vars, func(in []byte) []byte { v, _ := eval(in); return v.S })
		}
	case !typ.Fixed():
		p.vars = append(p.vars, c.strs(e))
	case bare && typ != record.TBool:
		from := s.Offset(i)
		p.fixed = append(p.fixed, func(in, out []byte) error { copy(out[off:off+8], in[from:]); return nil })
	case typ == record.TBool: // finish's error is c.err, returned below
		f, _ := finish(c, e, c.bools(e))
		p.fixed = append(p.fixed, writer(f, off, record.PutBool))
	case typ == record.TInt:
		f, _ := finish(c, e, num[int64](c, e))
		p.fixed = append(p.fixed, writer(f, off, record.PutInt))
	default:
		f, _ := finish(c, e, num[float64](c, e))
		p.fixed = append(p.fixed, writer(f, off, record.PutFloat))
	}
	return c.err
}

// writer makes a column writer that puts the value f computes from the
// input record at byte offset off of the output record.
func writer[T any](f func([]byte) (T, error), off int, put func([]byte, int, T)) func(in, out []byte) error {
	return func(in, out []byte) error {
		v, err := f(in)
		if err == nil {
			put(out, off, v)
		}
		return err
	}
}

// Size appends the payloads of the var-length columns to vars and returns
// the output record's length.
func (p *Projector) Size(in []byte, vars [][]byte) (int, [][]byte) {
	n := p.out.FixedLen()
	for _, col := range p.vars {
		v := col(in)
		vars = append(vars, v)
		n += len(v)
	}
	return n, vars
}

// Write writes the output record of in into out, which is as long as
// Size returned; vars holds the payloads Size appended.
func (p *Projector) Write(in, out []byte, vars [][]byte) error {
	for _, col := range p.fixed {
		if err := col(in, out); err != nil {
			return err
		}
	}
	p.out.PutVars(out, vars)
	return nil
}

// Partitioner is the support function the exchange operator uses to decide
// which consumer queue an output record must go to (paper, §4.2). It must
// return a value in [0, n) for the configured fan-out n.
type Partitioner func(data []byte) int

// RoundRobin returns a partitioner cycling through n partitions.
// It is safe for use by a single producer; each producer in a group gets
// its own instance (state records are per-iterator in Volcano).
func RoundRobin(n int) Partitioner {
	next := 0
	return func([]byte) int {
		p := next
		next++
		if next == n {
			next = 0
		}
		return p
	}
}

// HashPartition returns a partitioner hashing the given key fields.
func HashPartition(s *record.Schema, key record.Key, n int) Partitioner {
	return func(d []byte) int {
		return int(s.Hash(d, key) % uint64(n))
	}
}

// RangePartition returns a partitioner assigning records to partitions by
// comparing a field against ordered cut values: partition i receives
// records with field < cuts[i]; the last partition receives the rest.
// len(cuts) must be n-1 for n partitions.
func RangePartition(s *record.Schema, field int, cuts []record.Value) Partitioner {
	return func(d []byte) int {
		v, err := s.Get(d, field)
		if err != nil {
			return 0
		}
		for i, c := range cuts {
			if compareValues(v, c) < 0 {
				return i
			}
		}
		return len(cuts)
	}
}

// KeyCompare is the comparison support function handed to sort and
// merge-based operators.
type KeyCompare func(a, b []byte) int

// NewKeyCompare builds a comparator over the given sort terms.
func NewKeyCompare(s *record.Schema, spec []record.SortSpec) KeyCompare {
	return func(a, b []byte) int { return s.Compare(a, b, spec) }
}

package expr

import (
	"fmt"

	"repro/internal/record"
)

// Mode selects how a support function is realised (paper, §3): Compiled
// builds a tree of Go closures; Interpreted compiles to bytecode and runs
// the VM per record. Both are interchangeable behind the same function
// types, exactly as Volcano passes either machine code or interpreter +
// code through the same (function, argument) pair.
type Mode uint8

const (
	// Compiled realises support functions as Go closures.
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
	switch mode {
	case Interpreted:
		prog, err := CompileProgram(e, s)
		if err != nil {
			return nil, err
		}
		if prog.Type() != record.TBool {
			return nil, fmt.Errorf("expr: predicate %q has type %s, want bool", prog, prog.Type())
		}
		return func(d []byte) (bool, error) {
			v, err := prog.Eval(s, d)
			return v.B, err
		}, nil
	default:
		ev, typ, err := CompileClosure(e, s)
		if err != nil {
			return nil, err
		}
		if typ != record.TBool {
			return nil, fmt.Errorf("expr: predicate %q has type %s, want bool", e, typ)
		}
		return func(d []byte) (bool, error) {
			v, err := ev(d)
			return v.B, err
		}, nil
	}
}

// ParsePredicate parses src and builds a predicate against the schema.
func ParsePredicate(src string, s *record.Schema, mode Mode) (Predicate, error) {
	e, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return NewPredicate(e, s, mode)
}

// Projector is a support function computing the output values of a
// record into out, one per output field; project/compute operators use
// one evaluator per output field. Values may alias data.
type Projector func(data []byte, out []record.Value) error

// NewProjector builds a projector evaluating the given expressions, and
// returns the output schema with the given field names (names may be nil,
// in which case columns are named c0, c1, ...).
func NewProjector(exprs []Expr, names []string, s *record.Schema, mode Mode) (Projector, *record.Schema, error) {
	if names != nil && len(names) != len(exprs) {
		return nil, nil, fmt.Errorf("expr: %d names for %d expressions", len(names), len(exprs))
	}
	evs := make([]Evaluator, len(exprs))
	fields := make([]record.Field, len(exprs))
	for i, e := range exprs {
		var typ record.Type
		var err error
		if mode == Interpreted {
			prog, perr := CompileProgram(e, s)
			if perr != nil {
				return nil, nil, perr
			}
			typ = prog.Type()
			evs[i] = func(d []byte) (record.Value, error) { return prog.Eval(s, d) }
		} else {
			evs[i], typ, err = CompileClosure(e, s)
			if err != nil {
				return nil, nil, err
			}
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
	proj := func(d []byte, out []record.Value) error {
		for i, ev := range evs {
			v, err := ev(d)
			if err != nil {
				return err
			}
			out[i] = v
		}
		return nil
	}
	return proj, out, nil
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

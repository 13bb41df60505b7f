package expr

import (
	"bytes"
	"fmt"

	"repro/internal/record"
)

// The compiled form of a support function — the analog of the paper's
// "predicate evaluation function available in machine code" — is a tree
// of typed closures, one per AST node, of the Go type TypeCheck inferred
// for the node: bool, int64, float64 or []byte. No value is boxed, and
// a numeric operator is chosen when the tree is built, not per record; a
// numeric field is read at its fixed offset.
// Only integer / and % can fail: they panic with a zeroDivide, which the
// top of a tree holding one recovers into the VM's error. (An error slot
// passed down the calls would escape to the heap: one allocation per
// record.)

// number is the set of Go types a numeric node computes in.
type number interface{ int64 | float64 }

// zeroDivide names the integer operator, "division" or "modulo", whose
// divisor was zero.
type zeroDivide string

// closures builds the typed closures of one type-checked expression.
type closures struct {
	s       *record.Schema
	canFail bool  // the tree holds an integer / or %
	err     error // the first node that cannot be compiled
}

// finish makes f a support function. When the tree can fail, a
// zeroDivide panic becomes the VM's error naming e.
func finish[T any](c *closures, e Expr, f func([]byte) T) (func([]byte) (T, error), error) {
	if c.err != nil {
		return nil, c.err
	}
	if !c.canFail {
		return func(d []byte) (T, error) { return f(d), nil }, nil
	}
	src := e.String()
	return func(d []byte) (v T, err error) {
		defer func() {
			if r := recover(); r != nil {
				z, ok := r.(zeroDivide)
				if !ok {
					panic(r)
				}
				err = fmt.Errorf("expr: integer %s by zero in %s", z, src)
			}
		}()
		return f(d), nil
	}, nil
}

// field returns the schema index e references, if it is a field.
func field(e Expr) (int, bool) {
	switch n := e.(type) {
	case *Field:
		return n.Index, true
	case *Ident:
		return n.index, true
	}
	return 0, false
}

// index returns the schema index of e, a field: the builders reach it
// for any node they do not know, which is an error.
func (c *closures) index(e Expr) int {
	i, ok := field(e)
	if !ok && c.err == nil {
		c.err = fmt.Errorf("expr: cannot compile %T", e)
	}
	return i
}

// typeOf returns the type TypeCheck inferred for e.
func (c *closures) typeOf(e Expr) record.Type {
	switch n := e.(type) {
	case *Bin:
		return n.typ
	case *Un:
		return n.typ
	}
	t, _ := e.TypeCheck(c.s) // a leaf: nothing below it to check again
	return t
}

func (c *closures) bools(e Expr) func([]byte) bool {
	switch n := e.(type) {
	case *Lit:
		b := n.Val.B
		return func([]byte) bool { return b }
	case *Un:
		x := c.bools(n.X)
		return func(d []byte) bool { return !x(d) }
	case *Bin:
		switch n.Op {
		case OpAnd:
			l, r := c.bools(n.L), c.bools(n.R)
			return func(d []byte) bool { return l(d) && r(d) }
		case OpOr:
			l, r := c.bools(n.L), c.bools(n.R)
			return func(d []byte) bool { return l(d) || r(d) }
		case OpLike:
			l, r := c.strs(n.L), c.strs(n.R)
			return func(d []byte) bool { return likeMatch(l(d), r(d)) }
		}
		return c.compare(n)
	}
	s, i := c.s, c.index(e)
	return func(d []byte) bool { return s.GetBool(d, i) }
}

func (c *closures) strs(e Expr) func([]byte) []byte {
	if n, ok := e.(*Lit); ok {
		b := n.Val.S
		return func([]byte) []byte { return b }
	}
	s, i := c.s, c.index(e)
	return func(d []byte) []byte { return s.GetBytes(d, i) }
}

// compare builds a comparison. Numbers compare in float64 when either side
// is a float, which gives IEEE results: NaN is unordered and unequal to
// everything. Booleans and strings compare through their three-way order.
func (c *closures) compare(n *Bin) func([]byte) bool {
	op := n.Op
	switch lt, rt := c.typeOf(n.L), c.typeOf(n.R); {
	case lt == record.TFloat || rt == record.TFloat:
		return holds(op, num[float64](c, n.L), num[float64](c, n.R))
	case lt == record.TInt:
		return holds(op, num[int64](c, n.L), num[int64](c, n.R))
	case lt == record.TBool:
		l, r := c.bools(n.L), c.bools(n.R)
		return func(d []byte) bool { return order(op, record.CompareValues(record.Bool(l(d)), record.Bool(r(d))), 0) }
	default:
		l, r := c.strs(n.L), c.strs(n.R)
		return func(d []byte) bool { return order(op, bytes.Compare(l(d), r(d)), 0) }
	}
}

// holds builds the comparison l op r in T.
func holds[T number](op Op, l, r func([]byte) T) func([]byte) bool {
	switch op {
	case OpEq:
		return func(d []byte) bool { return l(d) == r(d) }
	case OpNe:
		return func(d []byte) bool { return l(d) != r(d) }
	case OpLt:
		return func(d []byte) bool { return l(d) < r(d) }
	case OpLe:
		return func(d []byte) bool { return l(d) <= r(d) }
	case OpGt:
		return func(d []byte) bool { return l(d) > r(d) }
	}
	return func(d []byte) bool { return l(d) >= r(d) }
}

// num builds numeric node e computing in T. An integer node where T is
// float64 is built in int64 and converted at its boundary, where the VM
// promotes it.
func num[T number](c *closures, e Expr) func([]byte) T {
	if isFloat[T]() && c.typeOf(e) == record.TInt {
		x := num[int64](c, e)
		return func(d []byte) T { return T(x(d)) }
	}
	switch n := e.(type) {
	case *Lit:
		k := constant[T](n.Val)
		return func([]byte) T { return k }
	case *Un:
		x := num[T](c, n.X)
		return func(d []byte) T { return -x(d) }
	case *Bin:
		return arith[T](c, n)
	}
	off := c.s.Offset(c.index(e))
	return func(d []byte) T { return at[T](d, off) }
}

func arith[T number](c *closures, n *Bin) func([]byte) T {
	l, r := num[T](c, n.L), num[T](c, n.R)
	switch {
	case n.Op == OpAdd:
		return func(d []byte) T { return l(d) + r(d) }
	case n.Op == OpSub:
		return func(d []byte) T { return l(d) - r(d) }
	case n.Op == OpMul:
		return func(d []byte) T { return l(d) * r(d) }
	case isFloat[T]():
		return func(d []byte) T { return l(d) / r(d) }
	}
	c.canFail = true // integer / and % (TypeCheck admits % on integers only)
	if n.Op == OpMod {
		return func(d []byte) T { a, b := l(d), nonzero(r(d), "modulo"); return T(int64(a) % int64(b)) }
	}
	return func(d []byte) T { a, b := l(d), nonzero(r(d), "division"); return a / b }
}

// nonzero returns the divisor b of an integer op, or panics if it is zero.
func nonzero[T number](b T, op zeroDivide) T {
	if b == 0 {
		panic(op)
	}
	return b
}

func isFloat[T number]() bool {
	_, ok := any(T(0)).(float64)
	return ok
}

// at reads the number at byte offset off of a record image.
func at[T number](d []byte, off int) T {
	if isFloat[T]() {
		return T(record.FloatAt(d, off))
	}
	return T(record.IntAt(d, off))
}

// constant converts a numeric literal to T.
func constant[T number](v record.Value) T {
	if v.Kind == record.TInt {
		return T(v.I)
	}
	return T(v.F)
}

// Package expr implements Volcano's support functions (paper, §3):
// predicates, projections, key comparisons and partitioning functions that
// the query processing algorithms receive through their state records.
//
// As in the paper, every support function exists in two forms selected by a
// run-time switch: a compiled form (Go closures, the analog of pointers to
// machine code) and an interpreted form (a compact stack bytecode executed
// by a small VM, the analog of passing "appropriate code for interpretation
// to the interpreter"). Both are produced from the same typed AST, which in
// turn can be built programmatically or parsed from a small expression
// language.
package expr

import (
	"fmt"

	"repro/internal/record"
)

// Op enumerates the binary and unary operators of the expression language.
type Op uint8

// Binary and unary operators.
const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpLike
	OpNeg // unary minus
	OpNot // unary not
)

var opNames = map[Op]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "AND", OpOr: "OR", OpLike: "LIKE", OpNeg: "-", OpNot: "NOT",
}

// String returns the surface syntax of the operator.
func (o Op) String() string { return opNames[o] }

// Expr is a node in the expression AST.
type Expr interface {
	// TypeCheck resolves identifiers against the schema and returns the
	// node's result type.
	TypeCheck(s *record.Schema) (record.Type, error)
	// String renders the expression in the surface syntax.
	String() string
}

// Lit is a literal constant.
type Lit struct{ Val record.Value }

// Field references a schema field by index (already resolved).
type Field struct {
	Index int
	typ   record.Type
}

// Ident references a schema field by name; TypeCheck resolves it.
type Ident struct {
	Name  string
	index int
	typ   record.Type
}

// Bin is a binary operation.
type Bin struct {
	Op   Op
	L, R Expr
	typ  record.Type
	// promote flags whether integer operands are promoted to float.
	promote bool
}

// Un is a unary operation.
type Un struct {
	Op  Op
	X   Expr
	typ record.Type
}

// TypeCheck implements Expr.
func (l *Lit) TypeCheck(*record.Schema) (record.Type, error) { return l.Val.Kind, nil }

// String implements Expr.
func (l *Lit) String() string { return l.Val.String() }

// TypeCheck implements Expr.
func (f *Field) TypeCheck(s *record.Schema) (record.Type, error) {
	if f.Index < 0 || f.Index >= s.NumFields() {
		return 0, fmt.Errorf("expr: field index %d out of range for %s", f.Index, s)
	}
	f.typ = s.Field(f.Index).Type
	return f.typ, nil
}

// String implements Expr.
func (f *Field) String() string { return fmt.Sprintf("$%d", f.Index) }

// TypeCheck implements Expr.
func (id *Ident) TypeCheck(s *record.Schema) (record.Type, error) {
	i := s.Index(id.Name)
	if i < 0 {
		return 0, fmt.Errorf("expr: unknown field %q in %s", id.Name, s)
	}
	id.index = i
	id.typ = s.Field(i).Type
	return id.typ, nil
}

// String implements Expr.
func (id *Ident) String() string { return id.Name }

func numeric(t record.Type) bool { return t == record.TInt || t == record.TFloat }

// TypeCheck implements Expr.
func (b *Bin) TypeCheck(s *record.Schema) (record.Type, error) {
	lt, err := b.L.TypeCheck(s)
	if err != nil {
		return 0, err
	}
	rt, err := b.R.TypeCheck(s)
	if err != nil {
		return 0, err
	}
	switch b.Op {
	case OpAdd, OpSub, OpMul, OpDiv, OpMod:
		if !numeric(lt) || !numeric(rt) {
			return 0, fmt.Errorf("expr: %s requires numeric operands, got %s and %s", b.Op, lt, rt)
		}
		if b.Op == OpMod && (lt != record.TInt || rt != record.TInt) {
			return 0, fmt.Errorf("expr: %% requires integer operands, got %s and %s", lt, rt)
		}
		if lt == record.TFloat || rt == record.TFloat {
			b.promote = true
			b.typ = record.TFloat
		} else {
			b.typ = record.TInt
		}
		return b.typ, nil
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		comparable := lt == rt ||
			(numeric(lt) && numeric(rt)) ||
			(!lt.Fixed() && !rt.Fixed())
		if !comparable {
			return 0, fmt.Errorf("expr: cannot compare %s with %s", lt, rt)
		}
		b.promote = numeric(lt) && numeric(rt) && lt != rt
		b.typ = record.TBool
		return b.typ, nil
	case OpAnd, OpOr:
		if lt != record.TBool || rt != record.TBool {
			return 0, fmt.Errorf("expr: %s requires boolean operands, got %s and %s", b.Op, lt, rt)
		}
		b.typ = record.TBool
		return b.typ, nil
	case OpLike:
		if lt.Fixed() || rt.Fixed() {
			return 0, fmt.Errorf("expr: LIKE requires string operands, got %s and %s", lt, rt)
		}
		b.typ = record.TBool
		return b.typ, nil
	default:
		return 0, fmt.Errorf("expr: %s is not a binary operator", b.Op)
	}
}

// String implements Expr.
func (b *Bin) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L.String(), b.Op, b.R.String())
}

// TypeCheck implements Expr.
func (u *Un) TypeCheck(s *record.Schema) (record.Type, error) {
	xt, err := u.X.TypeCheck(s)
	if err != nil {
		return 0, err
	}
	switch u.Op {
	case OpNeg:
		if !numeric(xt) {
			return 0, fmt.Errorf("expr: unary - requires numeric operand, got %s", xt)
		}
		u.typ = xt
		return xt, nil
	case OpNot:
		if xt != record.TBool {
			return 0, fmt.Errorf("expr: NOT requires boolean operand, got %s", xt)
		}
		u.typ = record.TBool
		return u.typ, nil
	default:
		return 0, fmt.Errorf("expr: %s is not a unary operator", u.Op)
	}
}

// String implements Expr.
func (u *Un) String() string {
	if u.Op == OpNot {
		return fmt.Sprintf("(NOT %s)", u.X.String())
	}
	return fmt.Sprintf("(-%s)", u.X.String())
}

// Literal constructors shared with the parser.
var (
	recordInt   = record.Int
	recordFloat = record.Float
	recordBool  = record.Bool
	recordStr   = record.Str
)

// likeMatch implements SQL LIKE with % (any run) and _ (any single byte).
func likeMatch(s, pat []byte) bool {
	// Iterative two-pointer matcher with backtracking on the last %.
	var si, pi int
	star, ss := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pat) && (pat[pi] == '_' || pat[pi] == s[si]):
			si++
			pi++
		case pi < len(pat) && pat[pi] == '%':
			star, ss = pi, si
			pi++
		case star >= 0:
			ss++
			si, pi = ss, star+1
		default:
			return false
		}
	}
	for pi < len(pat) && pat[pi] == '%' {
		pi++
	}
	return pi == len(pat)
}

// compareValues orders two comparable values in the total order of
// record.CompareValues (NaN first, as in sorts), promoting a mixed
// int/float pair to float.
func compareValues(a, b record.Value) int {
	if a.Kind != b.Kind && numeric(a.Kind) && numeric(b.Kind) {
		if a.Kind == record.TInt {
			a = record.Float(float64(a.I))
		} else {
			b = record.Float(float64(b.I))
		}
	}
	return record.CompareValues(a, b)
}

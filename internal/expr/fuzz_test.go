package expr

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/record"
)

// FuzzParse feeds arbitrary strings to the expression parser: it must
// never panic, and whatever parses must type-check-or-error cleanly and,
// if it compiles, evaluate identically in both support-function modes.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"id = 10 AND score > 1.5",
		"name LIKE 'a%' OR NOT active",
		"((1 + 2) * 3 - 4) / 5 % 2 = 1",
		"-id + -1.5e2 <> 0",
		"'it''s' = name",
		"$0 >= $1",
		"TRUE AND FALSE OR TRUE",
		"id % 0 = 1",
		"(((((((1)))))))",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	schema := record.MustSchema(
		record.Field{Name: "id", Type: record.TInt},
		record.Field{Name: "score", Type: record.TFloat},
		record.Field{Name: "name", Type: record.TString},
		record.Field{Name: "active", Type: record.TBool},
	)
	data := schema.MustEncode(record.Int(7), record.Float(2.5), record.Str("abc"), record.Bool(true))
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Parse(src)
		if err != nil {
			return
		}
		prog, perr := CompileProgram(e, schema)
		e2, err := Parse(src) // fresh AST: TypeCheck mutates nodes
		if err != nil {
			t.Fatalf("re-parse of %q failed: %v", src, err)
		}
		proj, _, cerr := NewProjector([]Expr{e2}, nil, schema, Compiled)
		if (perr == nil) != (cerr == nil) {
			t.Fatalf("%q: program err %v, projector err %v", src, perr, cerr)
		}
		if perr != nil {
			return
		}
		iv, ierr := prog.Eval(schema, data)
		cv, cerr := project(proj, data)
		if fmt.Sprint(ierr) != fmt.Sprint(cerr) {
			t.Fatalf("%q: eval err mismatch: %v vs %v", src, ierr, cerr)
		}
		if ierr == nil && record.CompareValues(iv, cv[0]) != 0 {
			t.Fatalf("%q: interpreted %v != compiled %v", src, iv, cv[0])
		}
	})
}

// FuzzCompiledMatchesInterpreted is a differential test of the two forms
// of a support function. The fuzzer's bytes drive a generator of random
// well-typed expressions — int/float promotion, NaN and ±Inf, LIKE,
// nested AND/OR/NOT, integer / and % by zero — over a record of a schema
// with fields of all four types, whose values the fuzzer also chooses.
// Each expression is a column of a compiled and of an interpreted
// projector, and so are all four together: the decoded output values
// must be equal, string and bytes counting as one payload, and so must
// every error's text.
func FuzzCompiledMatchesInterpreted(f *testing.F) {
	f.Add([]byte{1, 4, 1, 2, 0, 3, 1, 1, 0, 2, 4}, int64(7), int64(3), 2500.5, math.NaN(), "emp-ab-7", "emp-a%", true)
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, int64(0), int64(0), math.Inf(1), math.Inf(-1), "", "%", false)
	f.Add([]byte{3, 7, 7, 1, 9, 2, 4, 4, 0, 8, 5, 6}, int64(math.MinInt64), int64(-1), math.Copysign(0, -1), 1e300, "a_b", "_", true)
	f.Add([]byte{2, 4, 3, 1, 0, 1, 5, 2, 0, 7}, int64(5), int64(0), 0.5, math.NaN(), "x'y", "x%", false)
	// Fields equal to a literal and to each other, under (i <= 3),
	// (x <= 1.5) and (i <= j): comparisons on their boundary.
	f.Add([]byte{1, 3, 3, 0, 0, 0, 0, 0, 0, 4}, int64(3), int64(3), 1.5, 1.5, "p", "p", true)
	f.Add([]byte{1, 3, 3, 0, 1, 0, 0, 1, 0, 3}, int64(3), int64(3), 1.5, 1.5, "p", "p", true)
	f.Add([]byte{1, 3, 3, 0, 0, 0, 0, 0, 0, 1}, int64(3), int64(3), 1.5, 1.5, "p", "p", true)
	// An interpreted bool column that divides by zero.
	f.Add([]byte("10000101011002"), int64(-24), int64(35), 1.5, 15.0, "0", "0", true)
	schema := record.MustSchema(
		record.Field{Name: "i", Type: record.TInt},
		record.Field{Name: "j", Type: record.TInt},
		record.Field{Name: "x", Type: record.TFloat},
		record.Field{Name: "y", Type: record.TFloat},
		record.Field{Name: "s", Type: record.TString},
		record.Field{Name: "p", Type: record.TString},
		record.Field{Name: "b", Type: record.TBool},
	)
	f.Fuzz(func(t *testing.T, prog []byte, i, j int64, x, y float64, s, p string, b bool) {
		data := schema.MustEncode(record.Int(i), record.Int(j), record.Float(x), record.Float(y),
			record.Str(s), record.Str(p), record.Bool(b))
		g := &exprGen{src: prog}
		var srcs []string
		for _, typ := range []record.Type{record.TBool, record.TInt, record.TFloat, record.TString} {
			src := g.gen(typ, 4)
			if typ == record.TBool {
				checkPredicateForms(t, src, schema, data)
			}
			checkProjectorForms(t, schema, data, src)
			srcs = append(srcs, src)
		}
		checkProjectorForms(t, schema, data, srcs...)
	})
}

// checkProjectorForms projects data through the columns srcs in both
// modes and compares the decoded outputs and the error texts.
func checkProjectorForms(t *testing.T, s *record.Schema, data []byte, srcs ...string) {
	t.Helper()
	var vals [2][]record.Value
	var errs [2]string
	names := make([]string, len(srcs))
	for i := range names {
		names[i] = fmt.Sprint("c", i)
	}
	for m, mode := range []Mode{Compiled, Interpreted} {
		exprs := make([]Expr, len(srcs))
		for i, src := range srcs {
			e, err := Parse(src)
			if err != nil {
				t.Fatalf("generated %q does not parse: %v", src, err)
			}
			exprs[i] = e
		}
		proj, _, err := NewProjector(exprs, names, s, mode)
		if err != nil {
			t.Fatalf("%v projector %q: %v", mode, srcs, err)
		}
		v, err := project(proj, data)
		vals[m], errs[m] = v, fmt.Sprint(err)
	}
	if errs[0] != errs[1] {
		t.Fatalf("%q: compiled error %s, interpreted error %s", srcs, errs[0], errs[1])
	}
	for i := range vals[0] {
		if record.CompareValues(vals[0][i], vals[1][i]) != 0 {
			t.Fatalf("%q: compiled %v, interpreted %v", srcs, vals[0], vals[1])
		}
	}
}

// checkPredicateForms runs boolean src as a predicate in both modes.
func checkPredicateForms(t *testing.T, src string, s *record.Schema, data []byte) {
	t.Helper()
	var oks [2]bool
	var errs [2]string
	for m, mode := range []Mode{Compiled, Interpreted} {
		pred, err := ParsePredicate(src, s, mode)
		if err != nil {
			t.Fatalf("%v predicate %q: %v", mode, src, err)
		}
		ok, err := pred(data)
		oks[m], errs[m] = ok, fmt.Sprint(err)
	}
	if oks[0] != oks[1] || errs[0] != errs[1] {
		t.Fatalf("predicate %q: compiled %v, %s; interpreted %v, %s", src, oks[0], errs[0], oks[1], errs[1])
	}
}

// exprGen turns bytes into the source of a random well-typed expression
// over the fuzz schema; once the bytes run out every choice is 0.
type exprGen struct{ src []byte }

func (g *exprGen) pick(n int) int {
	if len(g.src) == 0 {
		return 0
	}
	c := g.src[0]
	g.src = g.src[1:]
	return int(c) % n
}

func (g *exprGen) oneOf(opts ...string) string { return opts[g.pick(len(opts))] }

// gen returns an expression of type typ nested at most depth deep.
func (g *exprGen) gen(typ record.Type, depth int) string {
	leaf := depth == 0 || g.pick(3) == 0
	switch typ {
	case record.TInt:
		if leaf {
			return g.oneOf("i", "j", "0", "1", "3", "10", "9223372036854775807", "(-1)")
		}
		if g.pick(6) == 0 {
			return "(-" + g.gen(record.TInt, depth-1) + ")"
		}
		return "(" + g.gen(record.TInt, depth-1) + g.oneOf(" + ", " - ", " * ", " / ", " % ") + g.gen(record.TInt, depth-1) + ")"
	case record.TFloat:
		if leaf {
			return g.oneOf("x", "y", "0.0", "1.5", "3000.0", "1e300", "(0.0 / 0.0)", "(1.0 / 0.0)", "(-1.0 / 0.0)")
		}
		switch g.pick(4) {
		case 0:
			return "(-" + g.gen(record.TFloat, depth-1) + ")"
		case 1: // an integer operand, promoted
			return "(" + g.gen(record.TInt, depth-1) + g.oneOf(" + ", " - ", " * ", " / ") + g.gen(record.TFloat, depth-1) + ")"
		}
		return "(" + g.gen(record.TFloat, depth-1) + g.oneOf(" + ", " - ", " * ", " / ") + g.gen(g.number(), depth-1) + ")"
	case record.TString:
		return g.oneOf("s", "p", "''", "'emp-a%'", "'%'", "'_'", "'a_b'", "'x''y'", "'emp-ab-7'")
	}
	if leaf {
		return g.oneOf("b", "TRUE", "FALSE")
	}
	switch g.pick(5) {
	case 0:
		return "(NOT " + g.gen(record.TBool, depth-1) + ")"
	case 1:
		return "(" + g.gen(record.TBool, depth-1) + g.oneOf(" AND ", " OR ") + g.gen(record.TBool, depth-1) + ")"
	case 2:
		return "(" + g.gen(record.TString, depth-1) + " LIKE " + g.gen(record.TString, depth-1) + ")"
	}
	cmp := g.oneOf(" = ", " <> ", " < ", " <= ", " > ", " >= ")
	switch g.pick(3) {
	case 0:
		return "(" + g.gen(g.number(), depth-1) + cmp + g.gen(g.number(), depth-1) + ")"
	case 1:
		return "(" + g.gen(record.TString, depth-1) + cmp + g.gen(record.TString, depth-1) + ")"
	}
	return "(" + g.gen(record.TBool, depth-1) + cmp + g.gen(record.TBool, depth-1) + ")"
}

func (g *exprGen) number() record.Type {
	if g.pick(2) == 0 {
		return record.TInt
	}
	return record.TFloat
}

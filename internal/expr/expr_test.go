package expr

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/record"
)

var testSchema = record.MustSchema(
	record.Field{Name: "id", Type: record.TInt},
	record.Field{Name: "score", Type: record.TFloat},
	record.Field{Name: "name", Type: record.TString},
	record.Field{Name: "active", Type: record.TBool},
)

func rec(id int64, score float64, name string, active bool) []byte {
	return testSchema.MustEncode(record.Int(id), record.Float(score), record.Str(name), record.Bool(active))
}

// evalBoth evaluates src in both modes and checks they agree.
func evalBoth(t *testing.T, src string, data []byte) record.Value {
	t.Helper()
	e := MustParse(src)
	prog, err := CompileProgram(e, testSchema)
	if err != nil {
		t.Fatalf("CompileProgram(%q): %v", src, err)
	}
	iv, err := prog.Eval(testSchema, data)
	if err != nil {
		t.Fatalf("Eval(%q): %v", src, err)
	}
	ev, _, err := CompileClosure(MustParse(src), testSchema)
	if err != nil {
		t.Fatalf("CompileClosure(%q): %v", src, err)
	}
	cv, err := ev(data)
	if err != nil {
		t.Fatalf("closure(%q): %v", src, err)
	}
	if !iv.Equal(cv) {
		t.Fatalf("%q: interpreted %v != compiled %v", src, iv, cv)
	}
	return iv
}

func TestArithmetic(t *testing.T) {
	data := rec(10, 2.5, "x", true)
	cases := map[string]record.Value{
		"1 + 2":           record.Int(3),
		"id * 3":          record.Int(30),
		"id - 4":          record.Int(6),
		"id / 3":          record.Int(3),
		"id % 3":          record.Int(1),
		"-id":             record.Int(-10),
		"score * 2":       record.Float(5),
		"id + score":      record.Float(12.5),
		"-score":          record.Float(-2.5),
		"score / 0.5":     record.Float(5),
		"2 * (id + 5)":    record.Int(30),
		"1 + 2 * 3":       record.Int(7),
		"(1 + 2) * 3":     record.Int(9),
		"10 - 2 - 3":      record.Int(5),
		"1.5e1 + 0.5":     record.Float(15.5),
		"-(id + 1)":       record.Int(-11),
		"id + -1":         record.Int(9),
		"100 / 10 / 5":    record.Int(2),
		"id * id - score": record.Float(97.5),
	}
	for src, want := range cases {
		if got := evalBoth(t, src, data); !got.Equal(want) {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestComparisonsAndLogic(t *testing.T) {
	data := rec(10, 2.5, "volcano", true)
	trueCases := []string{
		"id = 10", "id <> 11", "id != 11", "id < 11", "id <= 10", "id > 9", "id >= 10",
		"score = 2.5", "score > 2", "id > score",
		"name = 'volcano'", "name < 'w'", "name LIKE 'vol%'", "name LIKE '%cano'",
		"name LIKE 'v_lcano'", "name LIKE '%lc%'",
		"active", "active = TRUE", "NOT (id = 11)",
		"id = 10 AND score = 2.5", "id = 11 OR score = 2.5",
		"id = 10 OR 1 / 0 = 1",      // short-circuit OR must not divide
		"NOT (id = 11 AND 1/0 = 1)", // short-circuit AND must not divide
		"TRUE OR FALSE", "NOT FALSE",
		"id + 1 > score * 2",
	}
	for _, src := range trueCases {
		if got := evalBoth(t, src, data); !got.B {
			t.Errorf("%q = false, want true", src)
		}
	}
	falseCases := []string{
		"id = 11", "name LIKE 'x%'", "NOT active", "FALSE",
		"id = 10 AND score > 3", "id = 11 OR name = 'x'",
		"name LIKE 'volcanoX'", "name LIKE '_'",
	}
	for _, src := range falseCases {
		if got := evalBoth(t, src, data); got.B {
			t.Errorf("%q = true, want false", src)
		}
	}
}

func TestFieldReferenceByIndex(t *testing.T) {
	data := rec(7, 0, "z", false)
	if got := evalBoth(t, "$0 + 1", data); got.I != 8 {
		t.Fatalf("$0 + 1 = %v", got)
	}
}

func TestStringEscapes(t *testing.T) {
	s := record.MustSchema(record.Field{Name: "n", Type: record.TString})
	data := s.MustEncode(record.Str("it's"))
	e := MustParse("n = 'it''s'")
	prog, err := CompileProgram(e, s)
	if err != nil {
		t.Fatal(err)
	}
	v, err := prog.Eval(s, data)
	if err != nil || !v.B {
		t.Fatalf("escaped quote: %v %v", v, err)
	}
}

func TestDivisionByZeroErrors(t *testing.T) {
	data := rec(0, 0, "", false)
	for _, src := range []string{"1 / id", "1 % id"} {
		prog, err := CompileProgram(MustParse(src), testSchema)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := prog.Eval(testSchema, data); err == nil {
			t.Errorf("interpreted %q: no error", src)
		}
		ev, _, err := CompileClosure(MustParse(src), testSchema)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ev(data); err == nil {
			t.Errorf("compiled %q: no error", src)
		}
	}
	// Float division by zero is defined (IEEE inf).
	v := evalBoth(t, "1.0 / 0.0", rec(0, 0, "", false))
	if v.F <= 0 {
		t.Fatalf("1.0/0.0 = %v", v)
	}
}

func TestTypeErrors(t *testing.T) {
	bad := []string{
		"name + 1",
		"active + 1",
		"id AND active",
		"NOT id",
		"-name",
		"name LIKE 1",
		"id LIKE 'x'",
		"score % 2",
		"1 % 2.0",
		"name = 1",
		"nosuchfield = 1",
		"$99 = 1",
	}
	for _, src := range bad {
		e, err := Parse(src)
		if err != nil {
			t.Errorf("%q: parse error %v (want type error)", src, err)
			continue
		}
		if _, err := CompileProgram(e, testSchema); err == nil {
			t.Errorf("%q: type-checked, want error", src)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "1 +", "(1", "1)", "= 1", "'unterminated", "1 @ 2", "$", "NOT", "1 2",
		"id LIKE", "AND 1",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseStringRoundTrip(t *testing.T) {
	e := MustParse("id = 10 AND (score > 1.5 OR NOT active)")
	s := e.String()
	if !strings.Contains(s, "AND") || !strings.Contains(s, "OR") {
		t.Fatalf("String() = %q", s)
	}
	// Re-parse the rendering; it must evaluate identically.
	e2, err := Parse(s)
	if err != nil {
		t.Fatalf("re-parse %q: %v", s, err)
	}
	data := rec(10, 1.0, "a", false)
	p1, _ := CompileProgram(e, testSchema)
	p2, _ := CompileProgram(e2, testSchema)
	v1, _ := p1.Eval(testSchema, data)
	v2, _ := p2.Eval(testSchema, data)
	if !v1.Equal(v2) {
		t.Fatalf("round trip changed semantics: %v vs %v", v1, v2)
	}
}

func TestPredicateModes(t *testing.T) {
	for _, mode := range []Mode{Compiled, Interpreted} {
		p, err := ParsePredicate("id >= 5 AND name LIKE 'a%'", testSchema, mode)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		ok, err := p(rec(7, 0, "abc", false))
		if err != nil || !ok {
			t.Fatalf("%v: got %v, %v", mode, ok, err)
		}
		ok, err = p(rec(3, 0, "abc", false))
		if err != nil || ok {
			t.Fatalf("%v: got %v, %v", mode, ok, err)
		}
	}
	if _, err := NewPredicate(MustParse("id + 1"), testSchema, Compiled); err == nil {
		t.Fatal("non-bool predicate accepted")
	}
	if _, err := NewPredicate(MustParse("id + 1"), testSchema, Interpreted); err == nil {
		t.Fatal("non-bool interpreted predicate accepted")
	}
}

func TestProjector(t *testing.T) {
	for _, mode := range []Mode{Compiled, Interpreted} {
		exprs := []Expr{MustParse("id * 2"), MustParse("name"), MustParse("score > 2")}
		proj, out, err := NewProjector(exprs, []string{"double", "name", "high"}, testSchema, mode)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if out.NumFields() != 3 || out.Field(0).Type != record.TInt ||
			out.Field(1).Type != record.TString || out.Field(2).Type != record.TBool {
			t.Fatalf("%v: output schema %v", mode, out)
		}
		vals := make([]record.Value, out.NumFields())
		if err := proj(rec(21, 3.5, "n", true), vals); err != nil {
			t.Fatal(err)
		}
		if vals[0].I != 42 || string(vals[1].S) != "n" || !vals[2].B {
			t.Fatalf("%v: vals = %v", mode, vals)
		}
	}
	// Default names.
	proj, out, err := NewProjector([]Expr{MustParse("id + 1"), MustParse("name")}, nil, testSchema, Compiled)
	if err != nil {
		t.Fatal(err)
	}
	if out.Field(0).Name != "c0" || out.Field(1).Name != "name" {
		t.Fatalf("default names: %v", out)
	}
	if err := proj(rec(1, 0, "x", false), make([]record.Value, 2)); err != nil {
		t.Fatal(err)
	}
	// Arity mismatch.
	if _, _, err := NewProjector([]Expr{MustParse("1")}, []string{"a", "b"}, testSchema, Compiled); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestRoundRobinPartitioner(t *testing.T) {
	p := RoundRobin(3)
	want := []int{0, 1, 2, 0, 1, 2, 0}
	for i, w := range want {
		if got := p(nil); got != w {
			t.Fatalf("call %d: got %d, want %d", i, got, w)
		}
	}
}

func TestHashPartitioner(t *testing.T) {
	p := HashPartition(testSchema, record.Key{0}, 4)
	seen := map[int]bool{}
	for i := int64(0); i < 100; i++ {
		part := p(rec(i, 0, "", false))
		if part < 0 || part >= 4 {
			t.Fatalf("partition %d out of range", part)
		}
		seen[part] = true
		// Determinism.
		if again := p(rec(i, 0, "", false)); again != part {
			t.Fatalf("hash partition not deterministic for %d", i)
		}
	}
	if len(seen) != 4 {
		t.Fatalf("only %d of 4 partitions used over 100 keys", len(seen))
	}
}

func TestRangePartitioner(t *testing.T) {
	cuts := []record.Value{record.Int(10), record.Int(20)}
	p := RangePartition(testSchema, 0, cuts)
	cases := map[int64]int{0: 0, 9: 0, 10: 1, 19: 1, 20: 2, 1000: 2}
	for id, want := range cases {
		if got := p(rec(id, 0, "", false)); got != want {
			t.Errorf("id=%d: partition %d, want %d", id, got, want)
		}
	}
}

func TestKeyCompare(t *testing.T) {
	cmp := NewKeyCompare(testSchema, []record.SortSpec{{Field: 0}})
	a, b := rec(1, 0, "", false), rec(2, 0, "", false)
	if cmp(a, b) != -1 || cmp(b, a) != 1 || cmp(a, a) != 0 {
		t.Fatal("KeyCompare misbehaves")
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		s, pat string
		want   bool
	}{
		{"", "", true}, {"", "%", true}, {"a", "", false},
		{"abc", "abc", true}, {"abc", "a%", true}, {"abc", "%c", true},
		{"abc", "%b%", true}, {"abc", "a_c", true}, {"abc", "____", false},
		{"abc", "___", true}, {"aXbXc", "a%b%c", true}, {"mississippi", "%ss%ss%", true},
		{"mississippi", "%ss%xx%", false}, {"%", "%", true},
	}
	for _, c := range cases {
		if got := likeMatch([]byte(c.s), []byte(c.pat)); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.s, c.pat, got, c.want)
		}
	}
}

// Property: interpreted and compiled evaluation agree on arbitrary records
// for a fixed set of expressions.
func TestQuickModesAgree(t *testing.T) {
	exprs := []string{
		"id % 7 = 0 AND score > 0.5",
		"(id + 3) * 2 - 1",
		"score * score + id",
		"name LIKE 'a%' OR id < 0",
		"NOT active AND id <> 0",
	}
	for _, src := range exprs {
		prog, err := CompileProgram(MustParse(src), testSchema)
		if err != nil {
			t.Fatal(err)
		}
		ev, _, err := CompileClosure(MustParse(src), testSchema)
		if err != nil {
			t.Fatal(err)
		}
		prop := func(id int64, score float64, name string, active bool) bool {
			data := rec(id, score, name, active)
			iv, ierr := prog.Eval(testSchema, data)
			cv, cerr := ev(data)
			if (ierr == nil) != (cerr == nil) {
				return false
			}
			if ierr != nil {
				return true
			}
			return iv.Equal(cv)
		}
		if err := quick.Check(prop, nil); err != nil {
			t.Errorf("%q: %v", src, err)
		}
	}
}

// Property: hash partitioning always lands in range and is deterministic.
func TestQuickHashPartitionRange(t *testing.T) {
	p := HashPartition(testSchema, record.Key{0, 2}, 7)
	prop := func(id int64, name string) bool {
		d := rec(id, 0, name, false)
		x := p(d)
		return x >= 0 && x < 7 && p(d) == x
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeepExpressionStack(t *testing.T) {
	// Build a deeply right-nested expression to exercise VM stack growth.
	src := "1"
	for i := 0; i < 40; i++ {
		src = "1 + (" + src + ")"
	}
	prog, err := CompileProgram(MustParse(src), testSchema)
	if err != nil {
		t.Fatal(err)
	}
	v, err := prog.Eval(testSchema, rec(0, 0, "", false))
	if err != nil || v.I != 41 {
		t.Fatalf("deep expr = %v, %v", v, err)
	}
}

func BenchmarkPredicateCompiled(b *testing.B) {
	p, _ := ParsePredicate("id % 10 = 3 AND score > 0.25", testSchema, Compiled)
	data := rec(13, 0.5, "x", true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if ok, _ := p(data); !ok {
			b.Fatal("predicate false")
		}
	}
}

func BenchmarkPredicateInterpreted(b *testing.B) {
	p, _ := ParsePredicate("id % 10 = 3 AND score > 0.25", testSchema, Interpreted)
	data := rec(13, 0.5, "x", true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if ok, _ := p(data); !ok {
			b.Fatal("predicate false")
		}
	}
}

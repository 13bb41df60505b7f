package expr

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/record"
)

// MustParse is Parse that panics on error.
func MustParse(src string) Expr {
	e, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return e
}

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
	cv, err := compiledEval(t, src, testSchema)(data)
	if err != nil {
		t.Fatalf("compiled %q: %v", src, err)
	}
	if record.CompareValues(iv, cv) != 0 {
		t.Fatalf("%q: interpreted %v != compiled %v", src, iv, cv)
	}
	return iv
}

// project runs p over the input record in, as a project operator does,
// and decodes the output record.
func project(p *Projector, in []byte) ([]record.Value, error) {
	n, vars := p.Size(in, nil)
	out := make([]byte, n)
	if err := p.Write(in, out, vars); err != nil {
		return nil, err
	}
	return p.out.Decode(out)
}

// compiledEval returns the compiled form of src as the one column of a
// compiled projector.
func compiledEval(t testing.TB, src string, s *record.Schema) func([]byte) (record.Value, error) {
	t.Helper()
	p, _, err := NewProjector([]Expr{MustParse(src)}, nil, s, Compiled)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	return func(in []byte) (record.Value, error) {
		vals, err := project(p, in)
		if err != nil {
			return record.Value{}, err
		}
		return vals[0], nil
	}
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
		if got := evalBoth(t, src, data); record.CompareValues(got, want) != 0 {
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

// Both forms report an integer / or % by zero with the same text, naming
// the whole expression, whether it is evaluated or used as a predicate.
func TestDivisionByZeroErrors(t *testing.T) {
	data := rec(0, 0, "", false)
	for src, want := range map[string]string{
		"1 / id":                  "expr: integer division by zero in (1 / id)",
		"1 % id":                  "expr: integer modulo by zero in (1 % id)",
		"id / 0 = 1":              "expr: integer division by zero in ((id / 0) = 1)",
		"score > 1.0 + id % 0":    "expr: integer modulo by zero in (score > (1 + (id % 0)))",
		"NOT active AND 2/id > 0": "expr: integer division by zero in ((NOT active) AND ((2 / id) > 0))",
	} {
		prog, err := CompileProgram(MustParse(src), testSchema)
		if err != nil {
			t.Fatal(err)
		}
		_, ierr := prog.Eval(testSchema, data)
		_, cerr := compiledEval(t, src, testSchema)(data)
		for _, err := range []error{ierr, cerr} {
			if err == nil || err.Error() != want {
				t.Errorf("%q: got error %v, want %s", src, err, want)
			}
		}
		if typ, _ := MustParse(src).TypeCheck(testSchema); typ != record.TBool {
			continue
		}
		for _, mode := range []Mode{Compiled, Interpreted} {
			p, err := ParsePredicate(src, testSchema, mode)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p(data); err == nil || err.Error() != want {
				t.Errorf("%v predicate %q: got error %v, want %s", mode, src, err, want)
			}
		}
	}
	// Float division by zero is defined (IEEE inf).
	v := evalBoth(t, "1.0 / 0.0", rec(0, 0, "", false))
	if v.F <= 0 {
		t.Fatalf("1.0/0.0 = %v", v)
	}
}

// One compiled predicate and one projector, shared by goroutines that
// each see some records divide by zero: a failure is reported to the call
// that hit it and to no other, because the closures keep no state.
func TestCompiledConcurrentUse(t *testing.T) {
	pred, err := ParsePredicate("score > 1.5 AND 100 / id > 2", testSchema, Compiled)
	if err != nil {
		t.Fatal(err)
	}
	proj, _, err := NewProjector([]Expr{MustParse("id % (id - 3)"), MustParse("name")}, nil, testSchema, Compiled)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				id := int64((i + g) % 7)
				data := rec(id, 2.5, "n", false)
				ok, err := pred(data)
				if (err != nil) != (id == 0) || err == nil && ok != (100/id > 2) {
					t.Errorf("predicate on id %d: %v, %v", id, ok, err)
					return
				}
				out, err := project(proj, data)
				if (err != nil) != (id == 3) || err == nil && out[0].I != id%(id-3) {
					t.Errorf("projector on id %d: %v, %v", id, out, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// Comparisons with NaN follow IEEE 754 in both forms: every ordered
// comparison and = is false, and <> is true.
func TestNaNComparisons(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"0.0 / 0.0 = 5.0", false},
		{"0.0 / 0.0 >= 5.0", false},
		{"0.0 / 0.0 <> 5.0", true},
		{"0.0 / 0.0 < 5.0", false},
		{"0.0 / 0.0 <= 5.0", false},
		{"0.0 / 0.0 > 5.0", false},
		{"5 < 0.0 / 0.0", false},
		{"id = 0.0 / 0.0", false},
		{"0.0 / 0.0 = 0.0 / 0.0", false},
		{"0.0 / 0.0 <> 0.0 / 0.0", true},
		{"score = score", false},
		{"score <> score", true},
		{"score >= 1.0", false},
		{"NOT (score < 1.0)", true},
		{"1.0 / 0.0 > 1e300", true},
		{"-1.0 / 0.0 < id", true},
	}
	data := rec(5, math.NaN(), "", false)
	for _, c := range cases {
		for _, mode := range []Mode{Compiled, Interpreted} {
			p, err := ParsePredicate(c.src, testSchema, mode)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := p(data); err != nil || got != c.want {
				t.Errorf("%v %q = %v, %v; want %v", mode, c.src, got, err, c.want)
			}
		}
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
	if record.CompareValues(v1, v2) != 0 {
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
		vals, err := project(proj, rec(21, 3.5, "n", true))
		if err != nil {
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
	if _, err := project(proj, rec(1, 0, "x", false)); err != nil {
		t.Fatal(err)
	}
	// Arity mismatch.
	if _, _, err := NewProjector([]Expr{MustParse("1")}, []string{"a", "b"}, testSchema, Compiled); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

// A record too short for its fixed area never reaches a projector: Check
// rejects it where it enters, with Schema.Get's text for the first field
// that does not read (the name whose end offset the cut runs past, for
// 20 bytes). Over the checked image, each projector answers alike in
// both modes.
func TestProjectorTruncatedRecord(t *testing.T) {
	full := rec(7, 2.5, "n", true)
	for n, field := range map[int]string{0: "id", 10: "score", 20: "name"} {
		_, want := testSchema.Get(full[:n], testSchema.Index(field))
		if err := testSchema.Check(full[:n]); err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("Check over %d bytes: got error %v, want %v", n, err, want)
		}
	}
	for _, cols := range [][]string{{"score * 1.1"}, {"id", "score * 1.1", "name", "active"}, {"'lit'"}} {
		exprs := make([]Expr, len(cols))
		for i, src := range cols {
			exprs[i] = MustParse(src)
		}
		var outs [2][]record.Value
		for k, mode := range []Mode{Compiled, Interpreted} {
			proj, _, err := NewProjector(exprs, nil, testSchema, mode)
			if err != nil {
				t.Fatal(err)
			}
			if outs[k], err = project(proj, full); err != nil {
				t.Fatalf("%v %v: %v", mode, cols, err)
			}
		}
		if fmt.Sprint(outs[0]) != fmt.Sprint(outs[1]) {
			t.Errorf("%v: compiled %v, interpreted %v", cols, outs[0], outs[1])
		}
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
	// A float key against float cuts orders as sorts do, NaN first; an
	// int key against float cuts is promoted.
	fcuts := []record.Value{record.Float(1.5), record.Float(2.5)}
	fp := RangePartition(testSchema, 1, fcuts)
	for score, want := range map[float64]int{math.NaN(): 0, math.Inf(-1): 0, 1.5: 1, 2.4: 1, math.Inf(1): 2} {
		if got := fp(rec(0, score, "", false)); got != want {
			t.Errorf("score=%v: partition %d, want %d", score, got, want)
		}
	}
	ip := RangePartition(testSchema, 0, fcuts)
	for id, want := range map[int64]int{1: 0, 2: 1, 3: 2} {
		if got := ip(rec(id, 0, "", false)); got != want {
			t.Errorf("id=%d against float cuts: partition %d, want %d", id, got, want)
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
		ev := compiledEval(t, src, testSchema)
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
			return record.CompareValues(iv, cv) == 0
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

// The predicate layer alone: one PredicateBatch sweep over an 83-record
// batch of emp rows, the batch size operators run at by default, with the
// par_serial workload's filter and the ladder's expression rung. Compare
// the two benchmarks' ns/rec to rank the forms without a server:
//
//	go test -run '^$' -bench PredicateBatch ./internal/expr
func BenchmarkPredicateBatchCompiled(b *testing.B)    { benchPredicateBatch(b, Compiled) }
func BenchmarkPredicateBatchInterpreted(b *testing.B) { benchPredicateBatch(b, Interpreted) }

func benchPredicateBatch(b *testing.B, mode Mode) {
	emp := record.MustSchema(
		record.Field{Name: "id", Type: record.TInt},
		record.Field{Name: "dept", Type: record.TInt},
		record.Field{Name: "salary", Type: record.TFloat},
		record.Field{Name: "name", Type: record.TString},
	)
	recs := make([][]byte, 83)
	for i := range recs {
		name := fmt.Sprintf("emp-%c%c-%d", 'a'+i%26, 'a'+i*7%26, i)
		recs[i] = emp.MustEncode(record.Int(int64(i)), record.Int(int64(i%64)),
			record.Float(1000+float64(i*97%8000)), record.Str(name))
	}
	keep := make([]bool, len(recs))
	for _, c := range []struct{ name, src string }{
		{"filter", "salary > 3000.0"},
		{"ladder", "salary * 1.1 + 7.0 > 5000.0 AND name LIKE 'emp-a%'"},
	} {
		b.Run(c.name, func(b *testing.B) {
			pred, err := ParsePredicate(c.src, emp, mode)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := PredicateBatch(pred, recs, keep); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/rec")
		})
	}
}

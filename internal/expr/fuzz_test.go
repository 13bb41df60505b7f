package expr

import (
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
		ev, _, cerr := CompileClosure(e2, schema)
		if (perr == nil) != (cerr == nil) {
			t.Fatalf("%q: program err %v, closure err %v", src, perr, cerr)
		}
		if perr != nil {
			return
		}
		iv, ierr := prog.Eval(schema, data)
		cv, cerr2 := ev(data)
		if (ierr == nil) != (cerr2 == nil) {
			t.Fatalf("%q: eval err mismatch: %v vs %v", src, ierr, cerr2)
		}
		if ierr == nil && record.CompareValues(iv, cv) != 0 {
			t.Fatalf("%q: interpreted %v != compiled %v", src, iv, cv)
		}
	})
}

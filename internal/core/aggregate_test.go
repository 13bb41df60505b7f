package core

import (
	"math"
	"sort"
	"testing"

	"repro/internal/record"
)

// runAgg executes an aggregation with either algorithm and returns rows
// sorted by the first column.
func runAgg(t *testing.T, algo string, env *testEnv, in Iterator, groupBy record.Key, aggs []AggSpec) [][]record.Value {
	t.Helper()
	var it Iterator
	var err error
	switch algo {
	case "hash":
		it, err = NewHashAggregate(env.Env, in, groupBy, aggs)
	case "sort":
		spec := make([]record.SortSpec, len(groupBy))
		for i, f := range groupBy {
			spec[i] = record.SortSpec{Field: f}
		}
		it, err = NewSortAggregate(env.Env, NewSort(env.Env, in, spec), groupBy, aggs)
	}
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(it, 0)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(rows, func(i, j int) bool { return record.CompareValues(rows[i][0], rows[j][0]) < 0 })
	return rows
}

func TestAggregateBothAlgorithms(t *testing.T) {
	for _, algo := range []string{"hash", "sort"} {
		env := newTestEnv(t, 256)
		f := env.makeEmp(t, "emp", 100, 4)
		rows := runAgg(t, algo, env, scanOf(t, f), record.Key{1}, []AggSpec{
			{Func: AggCount},
			{Func: AggSum, Field: 2},
			{Func: AggMin, Field: 0},
			{Func: AggMax, Field: 0},
			{Func: AggAvg, Field: 2},
		})
		if len(rows) != 4 {
			t.Fatalf("%s: %d groups, want 4", algo, len(rows))
		}
		// dept 0: ids 0,4,...,96 → count 25, min 0, max 96,
		// sum salary = sum(1000+i) = 25*1000 + (0+4+...+96) = 25000+1200.
		g0 := rows[0]
		if g0[0].I != 0 || g0[1].I != 25 || g0[2].F != 26200 || g0[3].I != 0 || g0[4].I != 96 {
			t.Fatalf("%s: dept0 = %v", algo, g0)
		}
		if math.Abs(g0[5].F-26200.0/25) > 1e-9 {
			t.Fatalf("%s: avg = %v", algo, g0[5])
		}
		env.checkNoPinLeak(t)
		if n := len(env.Temp.List()); n != 0 {
			t.Fatalf("%s: %d temp files left", algo, n)
		}
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	for _, algo := range []string{"hash", "sort"} {
		env := newTestEnv(t, 64)
		f := env.makeInts(t, "t")
		rows := runAgg(t, algo, env, scanOf(t, f), record.Key{0}, []AggSpec{{Func: AggCount}})
		if len(rows) != 0 {
			t.Fatalf("%s: %d groups from empty input", algo, len(rows))
		}
		env.checkNoPinLeak(t)
	}
}

func TestAggregateSingleGroupPerKey(t *testing.T) {
	// Every key distinct: as many groups as rows.
	for _, algo := range []string{"hash", "sort"} {
		env := newTestEnv(t, 256)
		f := env.makeInts(t, "t", 5, 3, 1, 4, 2)
		rows := runAgg(t, algo, env, scanOf(t, f), record.Key{0}, []AggSpec{{Func: AggCount}})
		if len(rows) != 5 {
			t.Fatalf("%s: %d groups, want 5", algo, len(rows))
		}
		for _, r := range rows {
			if r[1].I != 1 {
				t.Fatalf("%s: group %v count != 1", algo, r)
			}
		}
	}
}

func TestAggregateValidation(t *testing.T) {
	env := newTestEnv(t, 64)
	f := env.makeEmp(t, "emp", 1, 1)
	if _, err := NewHashAggregate(env.Env, scanOf(t, f), record.Key{99}, nil); err == nil {
		t.Fatal("bad group field accepted")
	}
	if _, err := NewHashAggregate(env.Env, scanOf(t, f), record.Key{0},
		[]AggSpec{{Func: AggSum, Field: 3}}); err == nil {
		t.Fatal("sum over string accepted")
	}
	if _, err := NewSortAggregate(env.Env, scanOf(t, f), record.Key{0},
		[]AggSpec{{Func: AggAvg, Field: 3}}); err == nil {
		t.Fatal("avg over string accepted")
	}
	if _, err := NewHashAggregate(env.Env, scanOf(t, f), record.Key{0},
		[]AggSpec{{Func: AggMin, Field: -1}}); err == nil {
		t.Fatal("negative agg field accepted")
	}
}

func TestDistinctBothAlgorithms(t *testing.T) {
	mk := func(env *testEnv, in Iterator, algo string) (Iterator, error) {
		if algo == "hash" {
			return NewHashDistinct(env.Env, in)
		}
		return NewSortDistinct(env.Env, in)
	}
	for _, algo := range []string{"hash", "sort"} {
		env := newTestEnv(t, 256)
		f := env.makeInts(t, "t", 3, 1, 3, 2, 1, 1, 3)
		d, err := mk(env, scanOf(t, f), algo)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := Collect(d, 0)
		if err != nil {
			t.Fatal(err)
		}
		got := sortedInts(intsOf(rows, 0))
		if !equalInts(got, []int64{1, 2, 3}) {
			t.Fatalf("%s distinct = %v", algo, got)
		}
		env.checkNoPinLeak(t)
	}
}

func TestAggregateNamedColumns(t *testing.T) {
	env := newTestEnv(t, 64)
	f := env.makeEmp(t, "emp", 4, 2)
	agg, err := NewHashAggregate(env.Env, scanOf(t, f), record.Key{1}, []AggSpec{
		{Func: AggCount, Name: "n"},
		{Func: AggMax, Field: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := agg.Schema()
	if s.Index("n") != 1 || s.Index("max_salary") != 2 {
		t.Fatalf("schema = %v", s)
	}
	if s.Field(2).Type != record.TFloat {
		t.Fatal("max type not preserved")
	}
}

func TestDivisionBothAlgorithms(t *testing.T) {
	// Dividend: (student, course); divisor: required courses.
	dividend := [][2]int64{
		{1, 101}, {1, 102}, {1, 103}, // student 1 has all three
		{2, 101}, {2, 103}, // student 2 misses 102
		{3, 101}, {3, 102}, {3, 103}, {3, 104}, // student 3 has extra
		{4, 104}, // student 4 has only an irrelevant course
	}
	divisor := []int64{101, 102, 103}
	for _, algo := range []string{"hash", "sort"} {
		env := newTestEnv(t, 256)
		dv := env.makePairs(t, "dividend", dividend)
		ds := env.makeInts(t, "divisor", divisor...)
		var it Iterator
		var err error
		if algo == "hash" {
			it, err = NewHashDivision(env.Env, scanOf(t, dv), scanOf(t, ds),
				record.Key{0}, record.Key{1}, record.Key{0})
		} else {
			it, err = NewSortDivision(env.Env, scanOf(t, dv), scanOf(t, ds),
				record.Key{0}, record.Key{1}, record.Key{0})
		}
		if err != nil {
			t.Fatal(err)
		}
		rows, err := Collect(it, 0)
		if err != nil {
			t.Fatal(err)
		}
		got := sortedInts(intsOf(rows, 0))
		if !equalInts(got, []int64{1, 3}) {
			t.Fatalf("%s division = %v, want [1 3]", algo, got)
		}
		env.checkNoPinLeak(t)
		if n := len(env.Temp.List()); n != 0 {
			t.Fatalf("%s: %d temp files left", algo, n)
		}
	}
}

func TestDivisionEmptyDivisor(t *testing.T) {
	// x ÷ ∅ is conventionally all quotients; Volcano's hash division
	// returns none (a quotient must match at least one divisor row to be
	// seen). We assert the implemented behaviour: empty output.
	for _, algo := range []string{"hash", "sort"} {
		env := newTestEnv(t, 128)
		dv := env.makePairs(t, "dividend", [][2]int64{{1, 101}})
		ds := env.makeInts(t, "divisor")
		var it Iterator
		var err error
		if algo == "hash" {
			it, err = NewHashDivision(env.Env, scanOf(t, dv), scanOf(t, ds),
				record.Key{0}, record.Key{1}, record.Key{0})
		} else {
			it, err = NewSortDivision(env.Env, scanOf(t, dv), scanOf(t, ds),
				record.Key{0}, record.Key{1}, record.Key{0})
		}
		if err != nil {
			t.Fatal(err)
		}
		rows, err := Collect(it, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 0 {
			t.Fatalf("%s: empty divisor produced %v", algo, rows)
		}
	}
}

func TestDivisionPartialMode(t *testing.T) {
	env := newTestEnv(t, 256)
	dv := env.makePairs(t, "dividend", [][2]int64{{1, 101}, {1, 102}, {2, 101}})
	ds := env.makeInts(t, "divisor", 101, 102)
	d, err := NewHashDivision(env.Env, scanOf(t, dv), scanOf(t, ds),
		record.Key{0}, record.Key{1}, record.Key{0})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SetPartial(true); err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("partial rows = %d", len(rows))
	}
	counts := map[int64]int64{}
	for _, r := range rows {
		counts[r[0].I] = r[1].I
	}
	if counts[1] != 2 || counts[2] != 1 {
		t.Fatalf("partial counts = %v", counts)
	}
	env.checkNoPinLeak(t)
}

func TestDivisionValidation(t *testing.T) {
	env := newTestEnv(t, 64)
	dv := env.makePairs(t, "d", nil)
	ds := env.makeInts(t, "s")
	if _, err := NewHashDivision(env.Env, scanOf(t, dv), scanOf(t, ds), nil, record.Key{1}, record.Key{0}); err == nil {
		t.Fatal("empty quotient key accepted")
	}
	if _, err := NewHashDivision(env.Env, scanOf(t, dv), scanOf(t, ds), record.Key{0}, record.Key{1}, record.Key{0, 1}); err == nil {
		t.Fatal("divisor key arity mismatch accepted")
	}
	if _, err := NewSortDivision(env.Env, scanOf(t, dv), scanOf(t, ds), record.Key{99}, record.Key{1}, record.Key{0}); err == nil {
		t.Fatal("out-of-range quotient field accepted")
	}
}

// TestAggregateFloatSpecials pins min, max, sum and avg over NaN, ±Inf
// and -0.0 to the bytes of the boxed fold, restated here: a value
// replaces an extreme only when record.CompareValues orders it strictly
// before (after) it, so NaN is the smallest and among -0.0 and 0.0 the
// first seen stays; sums add in input order. Both algorithms run over the
// same rows, already in group order.
func TestAggregateFloatSpecials(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	negZero := math.Copysign(0, -1)
	groups := [][]float64{
		{nan, 1, -inf},
		{0, negZero},
		{negZero, 0},
		{negZero, negZero},
		{inf, -inf},
		{1.5, nan, 2.5},
		{inf, 1},
		{nan, nan},
		{-inf, negZero, 3},
	}
	s := record.MustSchema(record.Field{Name: "g", Type: record.TInt}, record.Field{Name: "x", Type: record.TFloat})
	aggs := []AggSpec{{Func: AggMin, Field: 1}, {Func: AggMax, Field: 1}, {Func: AggSum, Field: 1}, {Func: AggAvg, Field: 1}}
	for _, algo := range []string{"hash", "sort"} {
		t.Run(algo, func(t *testing.T) {
			env := newTestEnv(t, 64)
			f, err := env.base.Create("specials", s)
			if err != nil {
				t.Fatal(err)
			}
			for g, xs := range groups {
				for _, x := range xs {
					if _, err := f.Insert(s.MustEncode(record.Int(int64(g)), record.Float(x))); err != nil {
						t.Fatal(err)
					}
				}
			}
			var it Iterator
			if algo == "hash" {
				it, err = NewHashAggregate(env.Env, scanOf(t, f), record.Key{0}, aggs)
			} else {
				it, err = NewSortAggregate(env.Env, scanOf(t, f), record.Key{0}, aggs)
			}
			if err != nil {
				t.Fatal(err)
			}
			rows, err := Collect(it, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != len(groups) {
				t.Fatalf("%d groups, want %d", len(rows), len(groups))
			}
			for _, row := range rows {
				xs := groups[row[0].I]
				lo, hi, sum := record.Float(xs[0]), record.Float(xs[0]), 0.0
				for _, x := range xs {
					if record.CompareValues(record.Float(x), lo) < 0 {
						lo = record.Float(x)
					}
					if record.CompareValues(record.Float(x), hi) > 0 {
						hi = record.Float(x)
					}
					sum += x
				}
				want := []float64{lo.F, hi.F, sum, sum / float64(len(xs))}
				for i, w := range want {
					if got := row[1+i].F; math.Float64bits(got) != math.Float64bits(w) {
						t.Errorf("group %v: %s = %v (%#x), want %v (%#x)", xs, aggs[i].Func, got, math.Float64bits(got), w, math.Float64bits(w))
					}
				}
			}
		})
	}
}

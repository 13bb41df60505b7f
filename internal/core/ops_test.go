package core

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/record"
	"repro/internal/storage/btree"
)

func TestFileScanBasic(t *testing.T) {
	env := newTestEnv(t, 64)
	f := env.makeEmp(t, "emp", 100, 4)
	rows, err := Collect(scanOf(t, f), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 100 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[7][0].I != 7 || rows[7][3].String() != `"emp-7"` {
		t.Fatalf("row 7 = %v", rows[7])
	}
	env.checkNoPinLeak(t)
}

func TestFileScanProtocolErrors(t *testing.T) {
	env := newTestEnv(t, 64)
	f := env.makeEmp(t, "emp", 1, 1)
	s := scanOf(t, f)
	if err := s.NextBatch(NewBatch(1)); err == nil {
		t.Fatal("next before open succeeded")
	}
	if err := s.Close(); err == nil {
		t.Fatal("close before open succeeded")
	}
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	if err := s.Open(); err == nil {
		t.Fatal("double open succeeded")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFilterBothModes(t *testing.T) {
	for _, mode := range []expr.Mode{expr.Compiled, expr.Interpreted} {
		env := newTestEnv(t, 64)
		f := env.makeEmp(t, "emp", 100, 4)
		fl, err := NewFilterExpr(env.Env, scanOf(t, f), "dept = 2 AND salary < 1050", mode)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := Collect(fl, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if r[1].I != 2 || r[2].F >= 1050 {
				t.Fatalf("mode %v: row %v fails predicate", mode, r)
			}
		}
		// ids 2,6,...,46: dept==2 and salary<1050 → i<50, i%4==2: 12 rows.
		if len(rows) != 12 {
			t.Fatalf("mode %v: got %d rows, want 12", mode, len(rows))
		}
		env.checkNoPinLeak(t)
	}
}

func TestProject(t *testing.T) {
	env := newTestEnv(t, 64)
	f := env.makeEmp(t, "emp", 10, 2)
	p, err := NewProjectExprs(env.Env, scanOf(t, f),
		[]string{"id * 10", "name", "salary > 1005.0"},
		[]string{"id10", "name", "high"}, expr.Compiled)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[3][0].I != 30 || rows[3][2].B {
		t.Fatalf("row 3 = %v", rows[3])
	}
	if rows[9][2].B != true {
		t.Fatalf("row 9 = %v", rows[9])
	}
	env.checkNoPinLeak(t)
	// The temp file for materialised outputs is gone after Close.
	if n := len(env.Temp.List()); n != 0 {
		t.Fatalf("%d temp files left: %v", n, env.Temp.List())
	}
}

func TestIndexScan(t *testing.T) {
	env := newTestEnv(t, 128)
	f := env.makeEmp(t, "emp", 200, 4)
	tree, err := btree.Create(env.Pool, env.base.Device())
	if err != nil {
		t.Fatal(err)
	}
	// Index on id, inserted in storage order.
	sc := f.NewScan(false)
	for {
		r, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		key, err := btree.EncodeRecordKey(empSchema, r.Data, record.Key{0})
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.Insert(key, r.RID); err != nil {
			t.Fatal(err)
		}
		r.Unfix()
	}
	sc.Close()

	lo := btree.EncodeKey(record.Int(50))
	hi := btree.EncodeKey(record.Int(59))
	is, err := NewIndexScan(tree, f, nil, lo, hi, true, true)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(is, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("got %d rows, want 10", len(rows))
	}
	for i, r := range rows {
		if r[0].I != int64(50+i) {
			t.Fatalf("row %d = %v (index order broken)", i, r)
		}
	}
	env.checkNoPinLeak(t)
}

func TestSortSmallAndSpilled(t *testing.T) {
	for _, runSize := range []int{8, 4096} {
		env := newTestEnv(t, 256)
		vals := shuffled(500, 1)
		f := env.makeInts(t, "t", vals...)
		s := NewSort(env.Env, scanOf(t, f), []record.SortSpec{{Field: 0}})
		s.RunSize = runSize
		s.FanIn = 3
		rows, err := Collect(s, 0)
		if err != nil {
			t.Fatal(err)
		}
		got := intsOf(rows, 0)
		if !equalInts(got, sortedInts(vals)) {
			t.Fatalf("runSize %d: not sorted", runSize)
		}
		env.checkNoPinLeak(t)
		if n := len(env.Temp.List()); n != 0 {
			t.Fatalf("runSize %d: %d temp files left", runSize, n)
		}
	}
}

func TestSortDescendingAndMultiKey(t *testing.T) {
	env := newTestEnv(t, 128)
	f := env.makePairs(t, "t", [][2]int64{{1, 5}, {2, 1}, {1, 9}, {2, 7}, {1, 1}})
	s := NewSort(env.Env, scanOf(t, f), []record.SortSpec{{Field: 0}, {Field: 1, Desc: true}})
	rows, err := Collect(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]int64{{1, 9}, {1, 5}, {1, 1}, {2, 7}, {2, 1}}
	for i, w := range want {
		if rows[i][0].I != w[0] || rows[i][1].I != w[1] {
			t.Fatalf("row %d = %v, want %v", i, rows[i], w)
		}
	}
	env.checkNoPinLeak(t)
}

func TestSortEmptyInput(t *testing.T) {
	env := newTestEnv(t, 64)
	f := env.makeInts(t, "t")
	s := NewSort(env.Env, scanOf(t, f), []record.SortSpec{{Field: 0}})
	rows, err := Collect(s, 0)
	if err != nil || len(rows) != 0 {
		t.Fatalf("rows=%d err=%v", len(rows), err)
	}
	env.checkNoPinLeak(t)
}

func TestSortStability(t *testing.T) {
	// Records with equal keys keep their arrival order (SliceStable +
	// run-index tie-break).
	env := newTestEnv(t, 128)
	pairs := make([][2]int64, 100)
	for i := range pairs {
		pairs[i] = [2]int64{int64(i % 3), int64(i)}
	}
	f := env.makePairs(t, "t", pairs)
	s := NewSort(env.Env, scanOf(t, f), []record.SortSpec{{Field: 0}})
	s.RunSize = 10 // force many runs
	rows, err := Collect(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	var lastKey, lastSeq int64 = -1, -1
	for _, r := range rows {
		if r[0].I != lastKey {
			lastKey, lastSeq = r[0].I, -1
		}
		if r[1].I <= lastSeq {
			t.Fatalf("stability broken at key %d: %d after %d", r[0].I, r[1].I, lastSeq)
		}
		lastSeq = r[1].I
	}
	env.checkNoPinLeak(t)
}

func TestMergeIterator(t *testing.T) {
	env := newTestEnv(t, 128)
	a := env.makeInts(t, "a", 1, 4, 7, 10)
	b := env.makeInts(t, "b", 2, 5, 8)
	c := env.makeInts(t, "c", 3, 6, 9)
	m, err := NewMergeSpec([]Iterator{scanOf(t, a), scanOf(t, b), scanOf(t, c)},
		[]record.SortSpec{{Field: 0}})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := intsOf(rows, 0)
	if !equalInts(got, []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}) {
		t.Fatalf("merge = %v", got)
	}
	env.checkNoPinLeak(t)
}

func TestMergeSchemaMismatch(t *testing.T) {
	env := newTestEnv(t, 64)
	a := env.makeInts(t, "a", 1)
	b := env.makeEmp(t, "b", 1, 1)
	_, err := NewMergeSpec([]Iterator{scanOf(t, a), scanOf(t, b)}, []record.SortSpec{{Field: 0}})
	if err == nil {
		t.Fatal("schema mismatch accepted")
	}
	if _, err := NewMergeSpec(nil, nil); err == nil {
		t.Fatal("empty merge accepted")
	}
}

func TestNestedLoopsJoinAndCartesian(t *testing.T) {
	env := newTestEnv(t, 128)
	l := env.makePairs(t, "l", [][2]int64{{1, 10}, {2, 20}, {3, 30}})
	r := env.makePairs(t, "r", [][2]int64{{2, 200}, {3, 300}, {4, 400}})
	// Equi-join on first column via generic predicate.
	nl, err := NewNestedLoops(env.Env, scanOf(t, l), scanOf(t, r), "a = r_a", expr.Compiled)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(nl, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("join rows = %d, want 2", len(rows))
	}
	for _, row := range rows {
		if row[0].I != row[2].I {
			t.Fatalf("bad join row %v", row)
		}
	}
	env.checkNoPinLeak(t)

	// Cartesian product.
	cp, err := NewCartesianProduct(env.Env, scanOf(t, l), scanOf(t, r))
	if err != nil {
		t.Fatal(err)
	}
	rows, err = Collect(cp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("cartesian rows = %d, want 9", len(rows))
	}
	env.checkNoPinLeak(t)
	if n := len(env.Temp.List()); n != 0 {
		t.Fatalf("%d temp files left", n)
	}
}

func TestNestedLoopsThetaJoin(t *testing.T) {
	env := newTestEnv(t, 128)
	l := env.makeInts(t, "l", 1, 5, 9)
	r := env.makeInts(t, "r", 3, 7)
	nl, err := NewNestedLoops(env.Env, scanOf(t, l), scanOf(t, r), "$0 < $1", expr.Interpreted)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(nl, 0)
	if err != nil {
		t.Fatal(err)
	}
	// (1,3) (1,7) (5,7): 3 rows.
	if len(rows) != 3 {
		t.Fatalf("theta join rows = %d, want 3", len(rows))
	}
	env.checkNoPinLeak(t)
}

func TestCollectAndDrain(t *testing.T) {
	env := newTestEnv(t, 64)
	f := env.makeInts(t, "t", 1, 2, 3)
	n, err := Drain(scanOf(t, f), 0)
	if err != nil || n != 3 {
		t.Fatalf("Drain = %d, %v", n, err)
	}
	env.checkNoPinLeak(t)
}

func TestEnvTempNamesUnique(t *testing.T) {
	env := newTestEnv(t, 64)
	names := map[string]bool{}
	for i := 0; i < 100; i++ {
		n := env.TempName("x")
		if names[n] {
			t.Fatalf("duplicate temp name %q", n)
		}
		names[n] = true
	}
}

func TestResultWriterLifecycle(t *testing.T) {
	env := newTestEnv(t, 64)
	s := record.MustSchema(record.Field{Name: "x", Type: record.TInt})
	w, err := env.NewResultWriter("w", s)
	if err != nil {
		t.Fatal(err)
	}
	r, err := w.Write([]record.Value{record.Int(42)})
	if err != nil {
		t.Fatal(err)
	}
	if s.GetInt(r.Data, 0) != 42 {
		t.Fatal("wrong value")
	}
	// Dispose with a pinned record must fail (virtual files cannot close
	// before their records are unpinned).
	if err := w.Dispose(); err == nil {
		t.Fatal("dispose with pinned record succeeded")
	}
	r.Unfix()
	// w.f is nil now; create a new writer to verify clean dispose.
	w2, _ := env.NewResultWriter("w", s)
	r2, _ := w2.Write([]record.Value{record.Int(1)})
	r2.Unfix()
	if err := w2.Dispose(); err != nil {
		t.Fatal(err)
	}
	if err := w2.Dispose(); err != nil {
		t.Fatal("double dispose should be a no-op")
	}
	env.checkNoPinLeak(t)
}

func TestQueryPipelineComposition(t *testing.T) {
	// scan -> filter -> project -> sort: exercises anonymous inputs.
	env := newTestEnv(t, 256)
	f := env.makeEmp(t, "emp", 300, 5)
	fl, err := NewFilterExpr(env.Env, scanOf(t, f), "dept = 3", expr.Compiled)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := NewProjectExprs(env.Env, fl, []string{"id", "salary * 2"}, []string{"id", "sal2"}, expr.Compiled)
	if err != nil {
		t.Fatal(err)
	}
	so := NewSort(env.Env, pr, []record.SortSpec{{Field: 1, Desc: true}})
	rows, err := Collect(so, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 60 {
		t.Fatalf("rows = %d, want 60", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i][1].F > rows[i-1][1].F {
			t.Fatal("descending order broken")
		}
	}
	env.checkNoPinLeak(t)
	if n := len(env.Temp.List()); n != 0 {
		t.Fatalf("%d temp files left: %v", n, env.Temp.List())
	}
}

func TestCollectError(t *testing.T) {
	env := newTestEnv(t, 64)
	f := env.makeInts(t, "t", 1, 0, 3)
	fl, err := NewFilterExpr(env.Env, scanOf(t, f), "100 / v > 0", expr.Compiled)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(fl, 0); err == nil {
		t.Fatal("division by zero not propagated")
	}
	env.checkNoPinLeak(t)
}

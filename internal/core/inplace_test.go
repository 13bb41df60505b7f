package core

import (
	"fmt"
	"testing"

	"repro/internal/expr"
	"repro/internal/record"
)

// The allocation guards of the in-place record path: creating an output
// record costs no heap allocation per record — the slot is on a buffer
// page, scratch is reused — so each per-record step below must report 0
// (AllocsPerRun truncates the page allocations a long run amortises).

var deptSchema = record.MustSchema(
	record.Field{Name: "dno", Type: record.TInt},
	record.Field{Name: "dname", Type: record.TString},
)

// TestCombineZeroAlloc covers both stores: a pool page, and an arena
// whose blocks the previous batch's recycle freed.
func TestCombineZeroAlloc(t *testing.T) {
	for _, inArena := range []bool{false, true} {
		t.Run(map[bool]string{false: "pool", true: "arena"}[inArena], func(t *testing.T) {
			testCombineZeroAlloc(t, inArena)
		})
	}
}

func testCombineZeroAlloc(t *testing.T, inArena bool) {
	env := newTestEnv(t, 64)
	c := newCombiner(empSchema, deptSchema)
	w, err := env.newOutput("combine", empSchema.Concat(deptSchema), inArena)
	if err != nil {
		t.Fatal(err)
	}
	c.w = w
	l := empSchema.MustEncode(record.Int(7), record.Int(3), record.Float(1007), record.Str("emp-7"))
	r := deptSchema.MustEncode(record.Int(3), record.Str("dept-3"))
	for _, pair := range [][2][]byte{{l, r}, {l, c.zeroR}, {c.zeroL, r}} {
		n := testing.AllocsPerRun(1000, func() {
			if inArena {
				w.arena.recycle(0)
			}
			out, err := c.combine(pair[0], pair[1])
			if err != nil {
				t.Fatal(err)
			}
			out.Unfix()
		})
		if n != 0 {
			t.Fatalf("combine allocates %.0f times per record, want 0", n)
		}
	}
	out, err := c.combine(l, c.zeroR)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := w.schema.Decode(out.Data)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].I != 7 || string(vals[3].S) != "emp-7" || vals[4].I != 0 || len(vals[5].S) != 0 {
		t.Fatalf("left record padded right decodes as %v", vals)
	}
	out.Unfix()
	if err := c.dispose(); err != nil {
		t.Fatal(err)
	}
}

func TestProjectZeroAlloc(t *testing.T) {
	for _, arena := range []bool{false, true} {
		t.Run(map[bool]string{false: "pool", true: "arena"}[arena], func(t *testing.T) {
			testProjectZeroAlloc(t, arena)
		})
	}
}

// testProjectZeroAlloc reads project's allocations per 83-record batch:
// with its input from memory, only the pool's new pages allocate, fewer
// than one per batch.
func testProjectZeroAlloc(t *testing.T, arena bool) {
	env := newTestEnv(t, 256)
	const batches = 40
	p := empProject(t, env, batches, arena)
	if err := p.Open(); err != nil {
		t.Fatal(err)
	}
	b := NewBatch(DefaultBatchSize)
	n := testing.AllocsPerRun(batches-1, func() {
		if err := p.NextBatch(b); err != nil || !b.Full() {
			t.Fatalf("next batch: %d records, err=%v", b.Len(), err)
		}
		b.Release()
	})
	if n != 0 {
		t.Fatalf("project allocates %.0f times per %d-record batch, want 0", n, DefaultBatchSize)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// empSource hands out batches of the same frameless emp records, n
// batches per Open, with zero allocations, so project's guard and
// benchmark measure the projection and its store, not a scan.
type empSource struct {
	recs    []Rec
	n, left int
}

func (s *empSource) Schema() *record.Schema { return empSchema }
func (s *empSource) Open() error            { s.left = s.n; return nil }
func (s *empSource) Close() error           { return nil }
func (s *empSource) NextBatch(b *Batch) error {
	b.Reset()
	if s.left > 0 {
		s.left--
		for _, r := range s.recs[:b.Target()] {
			b.Append(r)
		}
	}
	return nil
}

// newEmpSource hands out batches batches of the same 83 emp records: id
// i, dept i%8.
func newEmpSource(batches int) *empSource {
	recs := make([]Rec, DefaultBatchSize)
	for i := range recs {
		recs[i] = Rec{Data: empSchema.MustEncode(record.Int(int64(i)), record.Int(int64(i%8)),
			record.Float(1000+float64(i*97%8000)), record.Str(fmt.Sprintf("emp-%d", i)))}
	}
	return &empSource{recs: recs, n: batches}
}

// empProject builds scan_stream's projection (id, dept, salary * 1.1,
// name) over batches batches of 83 emp records, writing into the pool
// through a temp file or into an arena.
func empProject(tb testing.TB, env *testEnv, batches int, arena bool) *Project {
	tb.Helper()
	p, err := NewProjectExprs(env.Env, newEmpSource(batches),
		[]string{"id", "dept", "salary * 1.1", "name"}, nil, expr.Compiled)
	if err != nil {
		tb.Fatal(err)
	}
	if arena && !UseArena(p) {
		tb.Fatal("project refused the arena")
	}
	return p
}

// BenchmarkProject is the projection layer alone, on both stores, over
// queries of 100 batches of 83 records:
//
//	go test -run '^$' -bench Project ./internal/core
func BenchmarkProject(b *testing.B) {
	const batches = 100
	for _, arena := range []bool{false, true} {
		b.Run(map[bool]string{false: "pool", true: "arena"}[arena], func(b *testing.B) {
			p := empProject(b, newTestEnv(b, 256), batches, arena)
			out := NewBatch(DefaultBatchSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.Open(); err != nil {
					b.Fatal(err)
				}
				for {
					if err := p.NextBatch(out); err != nil {
						b.Fatal(err)
					}
					if out.Len() == 0 {
						break
					}
					out.Release()
				}
				if err := p.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batches*DefaultBatchSize), "ns/rec")
		})
	}
}

// deptSource hands out 64 frameless dept records, dno 0..63, once per
// Open.
type deptSource struct {
	recs []Rec
	pos  int
}

func newDeptSource() *deptSource {
	recs := make([]Rec, 64)
	for i := range recs {
		recs[i] = Rec{Data: deptSchema.MustEncode(record.Int(int64(i)), record.Str(fmt.Sprintf("dept-%d", i)))}
	}
	return &deptSource{recs: recs}
}

func (s *deptSource) Schema() *record.Schema { return deptSchema }
func (s *deptSource) Open() error            { s.pos = 0; return nil }
func (s *deptSource) Close() error           { return nil }
func (s *deptSource) NextBatch(b *Batch) error {
	b.Reset()
	for ; s.pos < len(s.recs) && !b.Full(); s.pos++ {
		b.Append(s.recs[s.pos])
	}
	return nil
}

// empJoin builds par_serial's join, emp's dept = dno, over batches
// batches of 83 emp records, writing into the pool through a temp file
// or into an arena.
func empJoin(tb testing.TB, env *testEnv, batches int, arena bool) *HashMatch {
	tb.Helper()
	j, err := NewHashMatch(env.Env, MatchJoin, newEmpSource(batches), newDeptSource(), record.Key{1}, record.Key{0})
	if err != nil {
		tb.Fatal(err)
	}
	if arena && !UseArena(j) {
		tb.Fatal("join refused the arena")
	}
	return j
}

// TestHashMatchProbeZeroAlloc reads the join's allocations per 83-record
// batch in the steady state: the probe batch, the dropped probe records
// and the output queue reuse their storage.
func TestHashMatchProbeZeroAlloc(t *testing.T) {
	for _, arena := range []bool{false, true} {
		t.Run(map[bool]string{false: "pool", true: "arena"}[arena], func(t *testing.T) {
			env := newTestEnv(t, 256)
			const batches = 40
			j := empJoin(t, env, batches, arena)
			if err := j.Open(); err != nil {
				t.Fatal(err)
			}
			b := NewBatch(DefaultBatchSize)
			n := testing.AllocsPerRun(batches-1, func() {
				if err := j.NextBatch(b); err != nil || !b.Full() {
					t.Fatalf("next batch: %d records, err=%v", b.Len(), err)
				}
				b.Release()
			})
			if n != 0 {
				t.Fatalf("join allocates %.0f times per %d-record batch, want 0", n, DefaultBatchSize)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// BenchmarkJoinAggregate is par_serial's join and aggregate, join hash d
// on dept = dno | agg group dname compute count, sum(id), max(salary),
// over queries of 100 batches of 83 records:
//
//	go test -run '^$' -bench JoinAggregate ./internal/core
func BenchmarkJoinAggregate(b *testing.B) {
	const batches = 100
	env := newTestEnv(b, 256)
	agg, err := NewHashAggregate(env.Env, empJoin(b, env, batches, false), record.Key{5}, []AggSpec{
		{Func: AggCount}, {Func: AggSum, Field: 0}, {Func: AggMax, Field: 2},
	})
	if err != nil {
		b.Fatal(err)
	}
	out := NewBatch(DefaultBatchSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := agg.Open(); err != nil {
			b.Fatal(err)
		}
		for {
			if err := agg.NextBatch(out); err != nil {
				b.Fatal(err)
			}
			if out.Len() == 0 {
				break
			}
			out.Release()
		}
		if err := agg.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batches*DefaultBatchSize), "ns/rec")
}

func TestAggregateExistingGroupZeroAlloc(t *testing.T) {
	env := newTestEnv(t, 64)
	scan, err := NewFileScan(env.makeEmp(t, "emp", 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHashAggregate(env.Env, scan, record.Key{3, 1}, []AggSpec{
		{Func: AggCount}, {Func: AggSum, Field: 0}, {Func: AggMax, Field: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	data := empSchema.MustEncode(record.Int(1), record.Int(1), record.Float(1001), record.Str("emp-1"))
	h.absorb(data) // the group's first record allocates it
	n := testing.AllocsPerRun(1000, func() { h.absorb(data) })
	if n != 0 {
		t.Fatalf("accumulating into an existing group allocates %.0f times per record, want 0", n)
	}
	if g := h.groups[0]; len(h.groups) != 1 || h.table.len() != 1 || g.states[0].count != 1002 || g.states[1].sumI != 1002 {
		t.Fatalf("groups after 1002 records of one key: %d, state %+v", len(h.groups), g.states)
	}
}

// TestAggregateFoldsZeroAlloc holds every typed fold to no allocation
// per record: numbers are read at their offsets, and a string extreme is
// copied into storage the state already owns.
func TestAggregateFoldsZeroAlloc(t *testing.T) {
	recs := [][]byte{
		empSchema.MustEncode(record.Int(5), record.Int(1), record.Float(1005), record.Str("emp-5")),
		empSchema.MustEncode(record.Int(9), record.Int(1), record.Float(998.5), record.Str("emp-9")),
		empSchema.MustEncode(record.Int(2), record.Int(1), record.Float(1200), record.Str("emp-2")),
	}
	for _, spec := range []AggSpec{
		{Func: AggCount},
		{Func: AggSum, Field: 0}, {Func: AggSum, Field: 2},
		{Func: AggAvg, Field: 0}, {Func: AggAvg, Field: 2},
		{Func: AggMin, Field: 0}, {Func: AggMax, Field: 0},
		{Func: AggMin, Field: 2}, {Func: AggMax, Field: 2},
		{Func: AggMin, Field: 3}, {Func: AggMax, Field: 3},
	} {
		f, err := compileFold(empSchema, spec)
		if err != nil {
			t.Fatal(err)
		}
		var st aggState
		i := 0
		n := testing.AllocsPerRun(1000, func() {
			// The three records take turns, so every extreme is replaced
			// again and again.
			f.add(&st, recs[i%3])
			i++
			if i%3 == 0 {
				st.has = false
			}
		})
		if n != 0 {
			t.Errorf("%s(field %d) allocates %.0f times per record, want 0", spec.Func, spec.Field, n)
		}
	}
}

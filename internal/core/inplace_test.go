package core

import (
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

func TestCombineZeroAlloc(t *testing.T) {
	env := newTestEnv(t, 64)
	c := newCombiner(empSchema, deptSchema)
	w, err := env.NewResultWriter("combine", empSchema.Concat(deptSchema))
	if err != nil {
		t.Fatal(err)
	}
	c.w = w
	l := empSchema.MustEncode(record.Int(7), record.Int(3), record.Float(1007), record.Str("emp-7"))
	r := deptSchema.MustEncode(record.Int(3), record.Str("dept-3"))
	for _, pair := range [][2][]byte{{l, r}, {l, c.zeroR}, {c.zeroL, r}} {
		n := testing.AllocsPerRun(1000, func() {
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
	env := newTestEnv(t, 256)
	const rows = 3000
	scan, err := NewFileScan(env.makeEmp(t, "emp", rows, 8), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProjectExprs(env.Env, scan, []string{"id", "dept", "salary * 1.1", "name"}, nil, expr.Compiled)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Open(); err != nil {
		t.Fatal(err)
	}
	cur := NewCursor(p, 1)
	n := testing.AllocsPerRun(rows-100, func() {
		out, ok, err := cur.Pull()
		if err != nil || !ok {
			t.Fatalf("next: ok=%v err=%v", ok, err)
		}
		out.Unfix()
	})
	cur.Release()
	if n != 0 {
		t.Fatalf("project allocates %.0f times per record, want 0", n)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestAggregateExistingGroupZeroAlloc(t *testing.T) {
	env := newTestEnv(t, 64)
	scan, err := NewFileScan(env.makeEmp(t, "emp", 4, 2), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHashAggregate(env.Env, scan, record.Key{3, 1}, []AggSpec{
		{Func: AggCount}, {Func: AggSum, Field: 0}, {Func: AggMax, Field: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	h.groups = map[string]*group{}
	data := empSchema.MustEncode(record.Int(1), record.Int(1), record.Float(1001), record.Str("emp-1"))
	if err := h.absorb(empSchema, data); err != nil { // the group's first record allocates it
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(1000, func() {
		if err := h.absorb(empSchema, data); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Fatalf("accumulating into an existing group allocates %.0f times per record, want 0", n)
	}
	if g := h.order[0]; len(h.order) != 1 || g.states[0].count != 1002 || g.states[1].sumI != 1002 {
		t.Fatalf("groups after 1002 records of one key: %d, state %+v", len(h.order), g.states)
	}
}

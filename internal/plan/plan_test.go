package plan

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/record"
	"repro/internal/storage/buffer"
	"repro/internal/storage/device"
	"repro/internal/storage/file"
)

type testDB struct {
	env *core.Env
	cat MapCatalog
	vol *file.Volume
}

func newTestDB(t testing.TB) *testDB {
	t.Helper()
	reg := device.NewRegistry()
	baseID := reg.NextID()
	reg.Mount(device.NewMem(baseID))
	tempID := reg.NextID()
	reg.Mount(device.NewMem(tempID))
	t.Cleanup(func() { reg.CloseAll() })
	pool := buffer.NewPool(reg, 1024, buffer.TwoLevel)
	vol := file.NewVolume(pool, baseID)
	return &testDB{
		env: core.NewEnv(pool, file.NewVolume(pool, tempID)),
		cat: MapCatalog{},
		vol: vol,
	}
}

var empSchema = record.MustSchema(
	record.Field{Name: "id", Type: record.TInt},
	record.Field{Name: "dept", Type: record.TInt},
	record.Field{Name: "salary", Type: record.TFloat},
	record.Field{Name: "name", Type: record.TString},
)

var deptSchema = record.MustSchema(
	record.Field{Name: "dno", Type: record.TInt},
	record.Field{Name: "dname", Type: record.TString},
)

func (db *testDB) loadEmp(t testing.TB, n, ndept int) {
	t.Helper()
	f, err := db.vol.Create("emp", empSchema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		f.Insert(empSchema.MustEncode(
			record.Int(int64(i)), record.Int(int64(i%ndept)),
			record.Float(1000+float64(i)), record.Str(fmt.Sprintf("emp-%d", i)),
		))
	}
	db.cat["emp"] = f
	d, err := db.vol.Create("dept", deptSchema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ndept; i++ {
		d.Insert(deptSchema.MustEncode(record.Int(int64(i)), record.Str(fmt.Sprintf("dept-%d", i))))
	}
	db.cat["dept"] = d
}

// loadPartitioned creates files name.0..name.k-1 of one int column.
func (db *testDB) loadPartitioned(t testing.TB, name string, n, k int) {
	t.Helper()
	s := record.MustSchema(record.Field{Name: "v", Type: record.TInt})
	files := make([]*file.File, k)
	for p := range files {
		f, err := db.vol.Create(fmt.Sprintf("%s.%d", name, p), s)
		if err != nil {
			t.Fatal(err)
		}
		files[p] = f
		db.cat[fmt.Sprintf("%s.%d", name, p)] = f
	}
	for i := 0; i < n; i++ {
		files[i%k].Insert(s.MustEncode(record.Int(int64(i))))
	}
}

func (db *testDB) run(t *testing.T, script string) [][]record.Value {
	t.Helper()
	n, err := Parse(script)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	rows, err := Run(db.env, db.cat, n, 0)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return rows
}

func TestPlanScanFilterProjectSort(t *testing.T) {
	db := newTestDB(t)
	db.loadEmp(t, 100, 4)
	rows := db.run(t, `
# a comment
scan emp
| filter dept = 1 AND salary < 1050.0
| project id, salary * 2 as double
| sort double desc
`)
	if len(rows) != 13 {
		t.Fatalf("rows = %d, want 13", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i][1].F > rows[i-1][1].F {
			t.Fatal("sort broken")
		}
	}
}

func TestPlanJoinVariants(t *testing.T) {
	db := newTestDB(t)
	db.loadEmp(t, 50, 5)
	for _, algo := range []string{"hash", "merge"} {
		rows := db.run(t, fmt.Sprintf(`
with depts = scan dept | filter dno < 3
scan emp | join %s depts on dept = dno | filter dept <> dno + 1
`, algo))
		// 50 emps over 5 depts => 10 per dept; depts 0,1,2 qualify = 30.
		if len(rows) != 30 {
			t.Fatalf("%s join rows = %d, want 30", algo, len(rows))
		}
	}
	// Nested loops join via generic predicate.
	rows := db.run(t, `
with depts = scan dept
scan emp | join loops depts on dept = dno AND id < 10
`)
	if len(rows) != 10 {
		t.Fatalf("loops join rows = %d, want 10", len(rows))
	}
}

func TestPlanSemiAntiOuter(t *testing.T) {
	db := newTestDB(t)
	db.loadEmp(t, 20, 4)
	semi := db.run(t, `
with some = scan dept | filter dno = 2
scan emp | semijoin some on dept = dno
`)
	if len(semi) != 5 {
		t.Fatalf("semi rows = %d", len(semi))
	}
	anti := db.run(t, `
with some = scan dept | filter dno = 2
scan emp | antijoin some on dept = dno
`)
	if len(anti) != 15 {
		t.Fatalf("anti rows = %d", len(anti))
	}
	outer := db.run(t, `
with some = scan dept | filter dno = 2
scan emp | leftouter some on dept = dno
`)
	if len(outer) != 20 {
		t.Fatalf("leftouter rows = %d", len(outer))
	}
}

func TestPlanSetOps(t *testing.T) {
	db := newTestDB(t)
	db.loadEmp(t, 10, 2)
	rows := db.run(t, `
with evens = scan emp | filter id % 2 = 0 | project id
with lows = scan emp | filter id < 4 | project id
scan emp | project id | filter id < 0 | union evens | union lows
`)
	// evens: 0,2,4,6,8; lows: 0,1,2,3 → union = {0,1,2,3,4,6,8} = 7.
	if len(rows) != 7 {
		t.Fatalf("union rows = %d, want 7", len(rows))
	}
	inter := db.run(t, `
with lows = scan emp | filter id < 4 | project id
scan emp | filter id % 2 = 0 | project id | intersect lows
`)
	if len(inter) != 2 { // 0, 2
		t.Fatalf("intersect rows = %d, want 2", len(inter))
	}
	diff := db.run(t, `
with lows = scan emp | filter id < 4 | project id
scan emp | filter id % 2 = 0 | project id | difference lows
`)
	if len(diff) != 3 { // 4, 6, 8
		t.Fatalf("difference rows = %d, want 3", len(diff))
	}
	anti := db.run(t, `
with lows = scan emp | filter id < 4 | project id
scan emp | filter id % 2 = 0 | project id | antidifference lows
`)
	if len(anti) != 2 { // 1, 3
		t.Fatalf("antidifference rows = %d, want 2", len(anti))
	}
}

func TestPlanAggregate(t *testing.T) {
	db := newTestDB(t)
	db.loadEmp(t, 100, 4)
	for _, algo := range []string{"hash", "sort"} {
		rows := db.run(t, fmt.Sprintf(
			"scan emp | agg %s group dept compute count, sum(salary), max(id) | sort dept", algo))
		if len(rows) != 4 {
			t.Fatalf("%s agg groups = %d", algo, len(rows))
		}
		if rows[0][1].I != 25 {
			t.Fatalf("%s count = %v", algo, rows[0][1])
		}
	}
}

func TestPlanDistinct(t *testing.T) {
	db := newTestDB(t)
	db.loadEmp(t, 40, 4)
	rows := db.run(t, "scan emp | project dept | distinct sort | sort dept")
	if len(rows) != 4 {
		t.Fatalf("distinct rows = %d", len(rows))
	}
}

func TestPlanDivision(t *testing.T) {
	db := newTestDB(t)
	// enrolled(student, course), required(course)
	s := record.MustSchema(
		record.Field{Name: "student", Type: record.TInt},
		record.Field{Name: "course", Type: record.TInt},
	)
	f, _ := db.vol.Create("enrolled", s)
	for _, p := range [][2]int64{{1, 1}, {1, 2}, {2, 1}, {3, 1}, {3, 2}} {
		f.Insert(s.MustEncode(record.Int(p[0]), record.Int(p[1])))
	}
	db.cat["enrolled"] = f
	r := record.MustSchema(record.Field{Name: "course", Type: record.TInt})
	g, _ := db.vol.Create("required", r)
	g.Insert(r.MustEncode(record.Int(1)))
	g.Insert(r.MustEncode(record.Int(2)))
	db.cat["required"] = g

	for _, algo := range []string{"hash", "sort"} {
		rows := db.run(t, fmt.Sprintf(
			"with req = scan required\nscan enrolled | divide %s req quot student div course on course | sort student", algo))
		if len(rows) != 2 || rows[0][0].I != 1 || rows[1][0].I != 3 {
			t.Fatalf("%s division = %v", algo, rows)
		}
	}
}

func TestPlanExchange(t *testing.T) {
	db := newTestDB(t)
	db.loadPartitioned(t, "nums", 1000, 4)
	rows := db.run(t, `
pscan nums 4
| exchange producers=4 packet=16 flow=on slack=3
| sort v
`)
	if len(rows) != 1000 {
		t.Fatalf("exchange rows = %d", len(rows))
	}
	for i, r := range rows {
		if r[0].I != int64(i) {
			t.Fatalf("row %d = %v", i, r)
		}
	}
}

func TestPlanExchangeMergeNetwork(t *testing.T) {
	db := newTestDB(t)
	db.loadPartitioned(t, "nums", 900, 3)
	rows := db.run(t, `
pscan nums 3
| sort v
| exchange producers=3 merge=v packet=5
`)
	if len(rows) != 900 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r[0].I != int64(i) {
			t.Fatalf("merge network order broken at %d: %v", i, r)
		}
	}
}

func TestPlanExchangeInline(t *testing.T) {
	db := newTestDB(t)
	db.loadPartitioned(t, "nums", 300, 1)
	rows := db.run(t, `
pscan nums 1
| exchange producers=1 inline
| sort v
`)
	if len(rows) != 300 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestPlanExplain(t *testing.T) {
	n, err := Parse(`
with d = scan dept
pscan nums 3
| exchange producers=3 partition=hash(v) flow=on slack=2
| join hash d on v = dno
| sort v desc
`)
	if err != nil {
		t.Fatal(err)
	}
	out := Explain(n)
	for _, want := range []string{"sort", "join", "exchange", "pscan nums [3 partitions]", "scan dept", "flow=on slack=2"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
}

func TestPlanParseErrors(t *testing.T) {
	bad := []string{
		"",
		"filter x = 1",                           // no input
		"scan",                                   // missing table
		"scan emp | scan emp",                    // scan mid-pipeline
		"pscan emp",                              // missing partition count
		"scan emp | bogus",                       // unknown stage
		"scan emp | join hash nosuch on a = b",   // unknown subplan
		"scan emp | join hash d on a",            // bad condition (and unknown subplan)
		"with x scan emp",                        // missing =
		"scan emp | agg group compute",           // malformed agg
		"scan emp | agg group a compute",         // compute with no aggregate
		"scan emp | agg group a compute blah(x)", // unknown aggregate
		"scan emp | exchange bogus=1",            // unknown exchange option
		"scan emp | exchange producers=x",        // bad int
		"scan emp | sort id sideways",            // bad direction
		"scan emp | divide x quot a div b",       // malformed divide
		"scan a\nscan b",                         // two main pipelines
		"with a = scan t",                        // no main pipeline
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
}

func TestPlanUnknownTable(t *testing.T) {
	db := newTestDB(t)
	n, err := Parse("scan nosuch")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(db.env, db.cat, n, 0); err == nil {
		t.Fatal("unknown table accepted")
	}
}

func TestPlanUnknownFieldResolution(t *testing.T) {
	db := newTestDB(t)
	db.loadEmp(t, 5, 1)
	n, err := Parse("scan emp | sort nosuchfield")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(db.env, db.cat, n, 0); err == nil {
		t.Fatal("unknown sort field accepted")
	}
}

func TestVolumeCatalog(t *testing.T) {
	db := newTestDB(t)
	db.loadEmp(t, 3, 1)
	cat := VolumeCatalog{db.vol}
	if _, err := cat.Lookup("emp"); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Lookup("nosuch"); err == nil {
		t.Fatal("unknown table accepted")
	}
	n, _ := Parse("scan emp")
	rows, err := Run(db.env, cat, n, 0)
	if err != nil || len(rows) != 3 {
		t.Fatalf("rows=%d err=%v", len(rows), err)
	}
}

func TestPlanSupportFunctionModes(t *testing.T) {
	db := newTestDB(t)
	db.loadEmp(t, 50, 5)
	for _, mode := range []string{"", "interpreted ", "compiled "} {
		rows := db.run(t, "scan emp | filter "+mode+"dept = 2 | project "+mode+"id * 2 as d")
		if len(rows) != 10 {
			t.Fatalf("mode %q: rows = %d", mode, len(rows))
		}
	}
	// Inline exchange with >1 producers is API-only.
	if _, err := Parse("pscan t 3 | exchange producers=3 inline"); err == nil {
		t.Fatal("multi-member inline exchange accepted in plan language")
	}
}

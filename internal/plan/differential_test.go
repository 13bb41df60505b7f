package plan

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/record"
	"repro/internal/storage/buffer"
	"repro/internal/storage/device"
	"repro/internal/storage/file"
)

// The differential conformance harness: every plan in the corpus runs
// at each batch size, as written and as the cost pass derives it, and
// its sorted, rendered result set must match the golden file under
// testdata/differential — the answers the record-at-a-time protocol gave
// before batches became the only protocol. The corpus spans every
// operator family the plan language can express — scans, filters,
// projections, all join and match variants, aggregation, duplicate
// elimination, set operations, division, sorting, and single,
// partitioned, merging and nested exchanges — so a bug anywhere in an
// operator's consume or produce path at some batch size shows up as a
// mismatch here rather than as a wrong answer in production, and so
// does a rewrite across an exchange that changes an answer.

// diffBatchSizes are the batch sizes every corpus plan is replayed
// under: record-at-a-time, a tiny prime that never divides the row
// counts (forcing partial final batches everywhere), and the default.
var diffBatchSizes = []int{1, 7, core.DefaultBatchSize}

// diffDB is the differential fixture: one world holding every table the
// corpus references, with the buffer pool exposed for pin-leak checks.
type diffDB struct {
	env  *core.Env
	cat  MapCatalog
	pool *buffer.Pool
}

func newDiffDB(t testing.TB) *diffDB {
	t.Helper()
	reg := device.NewRegistry()
	baseID := reg.NextID()
	reg.Mount(device.NewMem(baseID))
	tempID := reg.NextID()
	reg.Mount(device.NewMem(tempID))
	t.Cleanup(func() { reg.CloseAll() })
	pool := buffer.NewPool(reg, 1024, buffer.TwoLevel)
	vol := file.NewVolume(pool, baseID)
	db := &diffDB{
		env:  core.NewEnv(pool, file.NewVolume(pool, tempID)),
		cat:  MapCatalog{},
		pool: pool,
	}

	// emp(id, dept, salary, name) and dept(dno, dname), as in plan_test.
	emp, err := vol.Create("emp", empSchema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		emp.Insert(empSchema.MustEncode(
			record.Int(int64(i)), record.Int(int64(i%4)),
			record.Float(1000+float64(i%13)*10), record.Str(fmt.Sprintf("emp-%d", i)),
		))
	}
	db.cat["emp"] = emp
	dep, err := vol.Create("dept", deptSchema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		dep.Insert(deptSchema.MustEncode(record.Int(int64(i)), record.Str(fmt.Sprintf("dept-%d", i))))
	}
	db.cat["dept"] = dep

	// nums.0..nums.3: one int column, 500 values dealt round robin.
	numSchema := record.MustSchema(record.Field{Name: "v", Type: record.TInt})
	parts := make([]*file.File, 4)
	for p := range parts {
		f, err := vol.Create(fmt.Sprintf("nums.%d", p), numSchema)
		if err != nil {
			t.Fatal(err)
		}
		parts[p] = f
		db.cat[fmt.Sprintf("nums.%d", p)] = f
	}
	for i := 0; i < 500; i++ {
		parts[i%4].Insert(numSchema.MustEncode(record.Int(int64(i))))
	}

	// staff.0..staff.3: 800 emp-shaped rows dealt round robin, so every
	// partition meets every department; dept = i%7 leaves 4..6 without a
	// dept row, and salaries carry fractions, so float sums round.
	// dparts.0..dparts.3: dept dealt one row per partition, a small build
	// side that differs from producer to producer.
	deal := func(name string, schema *record.Schema, rows [][]byte) {
		for p := 0; p < 4; p++ {
			f, err := vol.Create(fmt.Sprintf("%s.%d", name, p), schema)
			if err != nil {
				t.Fatal(err)
			}
			for i := p; i < len(rows); i += 4 {
				f.Insert(rows[i])
			}
			db.cat[fmt.Sprintf("%s.%d", name, p)] = f
		}
	}
	staff := make([][]byte, 800)
	for i := range staff {
		staff[i] = empSchema.MustEncode(
			record.Int(int64(i)), record.Int(int64(i%7)),
			record.Float(1000+float64(i%13)*10.01), record.Str(fmt.Sprintf("staff-%d", i)),
		)
	}
	deal("staff", empSchema, staff)
	dparts := make([][]byte, 4)
	for i := range dparts {
		dparts[i] = deptSchema.MustEncode(record.Int(int64(i)), record.Str(fmt.Sprintf("dept-%d", i)))
	}
	deal("dparts", deptSchema, dparts)

	// enrolled(student, course) ÷ required(course).
	es := record.MustSchema(
		record.Field{Name: "student", Type: record.TInt},
		record.Field{Name: "course", Type: record.TInt},
	)
	enr, err := vol.Create("enrolled", es)
	if err != nil {
		t.Fatal(err)
	}
	for s := int64(0); s < 20; s++ {
		for c := int64(0); c < 3; c++ {
			if s%2 == 0 || c != 1 { // odd students miss course 1
				enr.Insert(es.MustEncode(record.Int(s), record.Int(c)))
			}
		}
	}
	db.cat["enrolled"] = enr
	rs := record.MustSchema(record.Field{Name: "course", Type: record.TInt})
	req, err := vol.Create("required", rs)
	if err != nil {
		t.Fatal(err)
	}
	for c := int64(0); c < 3; c++ {
		req.Insert(rs.MustEncode(record.Int(c)))
	}
	db.cat["required"] = req
	return db
}

// renderSorted canonicalises a result set: each row rendered
// field-by-field, tab-separated, rows sorted, so comparison is
// order-insensitive (exchange arrival order is nondeterministic by
// design). Golden files hold one rendered row per line.
func renderSorted(rows [][]record.Value) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = v.String()
		}
		out[i] = strings.Join(cells, "\t")
	}
	sort.Strings(out)
	return out
}

// readGolden loads the rendered answer testdata/differential/<name>.golden.
func readGolden(t testing.TB, name string) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "differential", name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		return nil
	}
	return strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
}

// matchGolden compares a result set with its golden rendering. With
// tol > 0, float cells may differ by that relative amount (see
// sameRows); toleranced corpus plans lead with a unique group key, so
// their rows sort the same either way.
func matchGolden(got [][]record.Value, want []string, tol float64) error {
	g := renderSorted(got)
	if len(g) != len(want) {
		return fmt.Errorf("%d rows, golden has %d", len(g), len(want))
	}
	for i := range want {
		if g[i] != want[i] && !closeCells(g[i], want[i], tol) {
			return fmt.Errorf("row %d differs:\n got %q\nwant %q", i, g[i], want[i])
		}
	}
	return nil
}

// closeCells reports whether two rendered rows agree cell by cell, float
// cells within the relative tolerance tol.
func closeCells(a, b string, tol float64) bool {
	ac, bc := strings.Split(a, "\t"), strings.Split(b, "\t")
	if tol == 0 || len(ac) != len(bc) {
		return false
	}
	for i := range ac {
		if ac[i] == bc[i] {
			continue
		}
		x, errx := strconv.ParseFloat(ac[i], 64)
		y, erry := strconv.ParseFloat(bc[i], 64)
		if errx != nil || erry != nil || math.Abs(x-y) > tol*math.Max(math.Abs(x), math.Abs(y)) {
			return false
		}
	}
	return true
}

// sameRows compares two result sets as multisets. With tol = 0 the
// rendered rows must be identical; with tol > 0 float cells may differ
// by that relative amount — a float sum through a gathering exchange
// adds in arrival order, which varies from run to run. Toleranced rows
// are ordered by their cells at six significant digits, so toleranced
// corpus plans keep a unique group key ahead of any float.
func sameRows(got, want [][]record.Value, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	if tol == 0 {
		g, w := renderSorted(got), renderSorted(want)
		for i := range w {
			if g[i] != w[i] {
				return fmt.Errorf("row %d differs:\n got %q\nwant %q", i, g[i], w[i])
			}
		}
		return nil
	}
	order := func(rows [][]record.Value) [][]record.Value {
		key := func(row []record.Value) string {
			cells := make([]string, len(row))
			for j, v := range row {
				cells[j] = v.String()
				if v.Kind == record.TFloat {
					cells[j] = fmt.Sprintf("%.6g", v.F)
				}
			}
			return strings.Join(cells, "\x1f")
		}
		out := append([][]record.Value(nil), rows...)
		sort.SliceStable(out, func(i, j int) bool { return key(out[i]) < key(out[j]) })
		return out
	}
	g, w := order(got), order(want)
	for i := range w {
		for j := range w[i] {
			a, b := g[i][j], w[i][j]
			if a.Kind == record.TFloat && b.Kind == record.TFloat {
				if math.Abs(a.F-b.F) > tol*math.Max(math.Abs(a.F), math.Abs(b.F)) {
					return fmt.Errorf("row %d field %d: %v, want %v within %g", i, j, a.F, b.F, tol)
				}
				continue
			}
			if a.String() != b.String() {
				return fmt.Errorf("row %d field %d: %s, want %s", i, j, a, b)
			}
		}
	}
	return nil
}

// corpusCase is one conformance plan: it must parse and run against the
// diffDB fixture.
type corpusCase struct {
	name   string
	script string
}

// diffCorpus is the conformance corpus, one plan per operator family.
var diffCorpus = []corpusCase{
	{"scan", "scan emp"},
	{"filter", "scan emp | filter dept = 2 AND salary < 1100.0"},
	{"project-sort", "scan emp | project id, salary * 2 as double | sort double desc, id"},
	{"expr-modes", "scan emp | filter interpreted dept = 1 | project compiled id + dept as x"},
	{"join-hash", "with d = scan dept\nscan emp | join hash d on dept = dno"},
	{"join-merge", "with d = scan dept\nscan emp | join merge d on dept = dno"},
	{"join-loops", "with d = scan dept\nscan emp | join loops d on dept = dno AND id < 25"},
	{"semijoin", "with d = scan dept | filter dno = 2\nscan emp | semijoin d on dept = dno"},
	{"antijoin", "with d = scan dept | filter dno = 2\nscan emp | antijoin d on dept = dno"},
	{"leftouter", "with d = scan dept | filter dno < 2\nscan emp | leftouter d on dept = dno"},
	{"agg-hash", "scan emp | agg hash group dept compute count, sum(salary), max(id)"},
	{"agg-sort", "scan emp | agg sort group dept compute count, avg(salary), min(id)"},
	{"distinct", "scan emp | project dept | distinct sort"},
	{"union", "with evens = scan emp | filter id % 2 = 0 | project id\nwith lows = scan emp | filter id < 8 | project id\nscan emp | project id | filter id < 0 | union evens | union lows"},
	{"intersect", "with lows = scan emp | filter id < 8 | project id\nscan emp | filter id % 2 = 0 | project id | intersect lows"},
	{"difference", "with lows = scan emp | filter id < 8 | project id\nscan emp | filter id % 2 = 0 | project id | difference lows"},
	{"divide-hash", "with req = scan required\nscan enrolled | divide hash req quot student div course on course"},
	{"divide-sort", "with req = scan required\nscan enrolled | divide sort req quot student div course on course"},
	{"exchange", "pscan nums 4 | exchange producers=4 packet=16 flow=on slack=3"},
	{"exchange-hash-partition", "pscan nums 4 | exchange producers=4 partition=hash(v) packet=7"},
	{"exchange-merge", "pscan nums 4 | sort v | exchange producers=4 merge=v packet=5"},
	{"exchange-nested", "pscan nums 4 | exchange producers=4 packet=16 | exchange producers=1 packet=5"},
	{"exchange-above-join", "with d = scan dept\npscan nums 4 | exchange producers=4 packet=16 | join hash d on v = dno"},
	{"exchange-agg", "pscan nums 4 | exchange producers=4 packet=16 flow=on slack=3 | agg hash group v compute count | filter v < 10"},
}

// rewriteCorpus holds the shapes the cost pass rewrites across an
// exchange and the ones its guards must leave alone
// (TestCostRewritesAcrossExchange says which is which). It runs with
// diffCorpus everywhere but the fragment golden, which pins the cuts of
// the operator families only.
var rewriteCorpus = []corpusCase{
	{"exchange-join-agg", "with d = scan dept\npscan staff 4 | filter salary > 1020.0 | exchange producers=4 packet=16 | join hash d on dept = dno | agg group dname compute count, sum(id), min(salary), max(salary) | sort dname"},
	{"exchange-join-agg-positional", "with d = scan dept\npscan staff 4 | filter salary > 1020.0 | exchange producers=4 packet=16 | join hash d on dept = dno | agg sort group $5 compute count, sum($0), min($2), max($2)"},
	{"exchange-group-only", "pscan staff 4 | exchange producers=4 packet=16 | agg group dept, $2"},
	{"exchange-agg-avg", "pscan staff 4 | exchange producers=4 packet=16 | agg group dept compute count, avg(salary)"},
	{"exchange-leftouter", "with d = scan dept\npscan staff 4 | exchange producers=4 packet=16 | leftouter d on dept = dno"},
	{"exchange-build-pscan", "with d = pscan dparts 4\npscan staff 4 | exchange producers=4 packet=16 | join hash d on dept = dno"},
	{"exchange-merge-agg", "pscan staff 4 | sort id | exchange producers=4 merge=id packet=16 | agg group dept compute count, max(id)"},
	{"exchange-float-sum", "pscan staff 4 | exchange producers=4 packet=16 | agg group dept compute sum(salary), count"},
}

// diffTolerance is the relative tolerance (see sameRows) of the corpus
// plans whose float results add up in exchange arrival order.
var diffTolerance = map[string]float64{
	"exchange-agg-avg":   1e-9,
	"exchange-float-sum": 1e-9,
}

func TestDifferentialCorpus(t *testing.T) {
	db := newDiffDB(t)
	for _, tc := range append(diffCorpus, rewriteCorpus...) {
		t.Run(tc.name, func(t *testing.T) {
			want := readGolden(t, tc.name)
			if len(want) == 0 && tc.name != "union" {
				// Every corpus plan except the degenerate branch of union
				// produces rows; an empty golden would make the comparison
				// vacuous.
				t.Fatalf("golden has no rows — corpus case is vacuous")
			}
			n, err := Parse(tc.script)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			// The costed tree — knobs as written, rewrites across the
			// exchange applied — must answer like the text's own tree.
			tpl, err := Compile(tc.script)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			costed := tpl.Cost(db.cat, nil).Template.Root()
			for _, root := range []*Node{n, costed} {
				for _, size := range diffBatchSizes {
					got, err := Run(db.env, db.cat, root, size)
					if err != nil {
						t.Fatalf("batch size %d: %v\nplan:\n%s", size, err, Explain(root))
					}
					if err := matchGolden(got, want, diffTolerance[tc.name]); err != nil {
						t.Fatalf("batch size %d: %v\nplan:\n%s", size, err, Explain(root))
					}
					if pinned := db.pool.PinnedFrames(); pinned != 0 {
						t.Fatalf("batch size %d: %d frames still pinned\nplan:\n%s", size, pinned, Explain(root))
					}
				}
			}
		})
	}
}

// diffRejected are plans that parse but that every batch size must
// refuse at build time, naming the offending stage: `pscan T N` used to read
// T.0..N-1 whatever the catalog held, and an exchange whose producers=
// disagreed with N read a subset or failed at Open.
var diffRejected = []struct {
	name, script, want string
}{
	{"pscan-too-few", "pscan nums 3 | exchange producers=3 packet=16",
		"line 1, stage 1: pscan nums 3: the table has more than 3 partitions (nums.3 exists)"},
	{"pscan-too-many", "pscan nums 5 | exchange producers=5 packet=16",
		"line 1, stage 1: pscan nums 5: partition nums.4 is missing"},
	{"producers-mismatch", "with d = scan dept\npscan nums 4 | exchange producers=2 packet=16 | join hash d on v = dno",
		"line 2, stage 2: exchange producers=2 over a pscan of 4 partitions"},
}

func TestDifferentialRejected(t *testing.T) {
	db := newDiffDB(t)
	for _, tc := range diffRejected {
		t.Run(tc.name, func(t *testing.T) {
			n, err := Parse(tc.script)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			for _, size := range append([]int{0}, diffBatchSizes...) {
				_, _, err := BuildWith(db.env, db.cat, n, BuildOptions{BatchSize: size})
				var pe *ParseError
				if !errors.As(err, &pe) || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("batch size %d: build error = %v, want %q", size, err, tc.want)
				}
			}
			if pinned := db.pool.PinnedFrames(); pinned != 0 {
				t.Fatalf("%d frames still pinned after the refused builds", pinned)
			}
		})
	}
}

// TestDifferentialIndexScan replays index-scan plans (which need a
// durable volume with a saved B+-tree) at every batch size against their
// goldens.
func TestDifferentialIndexScan(t *testing.T) {
	env, cat := durableDB(t)
	for name, script := range map[string]string{
		"iscan-range":          "iscan t t_id 100 199",
		"iscan-filter-project": "iscan t t_id | filter v > 500 | project id, v",
		"iscan-agg":            "iscan t t_id 990 | agg hash group v compute count",
	} {
		n, err := Parse(script)
		if err != nil {
			t.Fatalf("parse %q: %v", script, err)
		}
		want := readGolden(t, name)
		if len(want) == 0 {
			t.Fatalf("%q: golden has no rows", script)
		}
		for _, size := range diffBatchSizes {
			got, err := Run(env, cat, n, size)
			if err != nil {
				t.Fatalf("batch size %d %q: %v", size, script, err)
			}
			if err := matchGolden(got, want, 0); err != nil {
				t.Fatalf("batch size %d %q: %v", size, script, err)
			}
		}
	}
}

// drainN pulls through NextBatch refills of the given size until EOS,
// an error, or limit records, releasing each batch.
func drainN(it core.Iterator, size, limit int) (int, error) {
	b := core.NewBatch(size)
	n := 0
	for n < limit {
		if err := it.NextBatch(b); err != nil {
			return n, err
		}
		if b.Len() == 0 {
			return n, nil
		}
		n += b.Len()
		b.Release()
	}
	return n, nil
}

// TestDifferentialCancellationPreClosed builds an exchange plan with an
// already-closed Done channel: at every batch size the stream must fail
// with ErrCanceled and leak no pins.
func TestDifferentialCancellationPreClosed(t *testing.T) {
	db := newDiffDB(t)
	n, err := Parse("pscan nums 4 | exchange producers=4 packet=16 flow=on slack=3")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	close(done)
	for _, size := range []int{1, 7} {
		it, _, err := BuildWith(db.env, db.cat, n, BuildOptions{Done: done, BatchSize: size})
		if err != nil {
			t.Fatal(err)
		}
		if err := it.Open(); err != nil {
			t.Fatalf("size %d: open: %v", size, err)
		}
		_, drainErr := drainN(it, size, 1<<20)
		if !errors.Is(drainErr, core.ErrCanceled) {
			t.Fatalf("size %d: drain error = %v, want ErrCanceled", size, drainErr)
		}
		if err := it.Close(); err != nil && !errors.Is(err, core.ErrCanceled) {
			t.Fatalf("size %d: close: %v", size, err)
		}
		if pinned := db.pool.PinnedFrames(); pinned != 0 {
			t.Fatalf("size %d: %d frames still pinned", size, pinned)
		}
	}
}

// TestDifferentialCancellationMidStream consumes part of the result,
// closes Done mid-stream, and requires a clean teardown at every size:
// the remaining drain either finishes or reports ErrCanceled, Close
// succeeds (or reports the cancellation), and no pin leaks.
func TestDifferentialCancellationMidStream(t *testing.T) {
	db := newDiffDB(t)
	n, err := Parse("pscan nums 4 | exchange producers=4 packet=4 flow=on slack=2")
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{1, 7} {
		done := make(chan struct{})
		it, _, err := BuildWith(db.env, db.cat, n, BuildOptions{Done: done, BatchSize: size})
		if err != nil {
			t.Fatal(err)
		}
		if err := it.Open(); err != nil {
			t.Fatalf("size %d: open: %v", size, err)
		}
		// Take a prefix, then cancel while producers are still working
		// (packet=4 with slack 2 keeps most of the 500 rows undelivered).
		_, prefixErr := drainN(it, size, 20)
		if prefixErr != nil {
			t.Fatalf("size %d: prefix drain: %v", size, prefixErr)
		}
		close(done)
		_, restErr := drainN(it, size, 1<<20)
		if restErr != nil && !errors.Is(restErr, core.ErrCanceled) {
			t.Fatalf("size %d: post-cancel drain error = %v", size, restErr)
		}
		if err := it.Close(); err != nil && !errors.Is(err, core.ErrCanceled) {
			t.Fatalf("size %d: close: %v", size, err)
		}
		if pinned := db.pool.PinnedFrames(); pinned != 0 {
			t.Fatalf("size %d: %d frames still pinned after cancel", size, pinned)
		}
	}
}

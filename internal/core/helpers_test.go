package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/record"
	"repro/internal/storage/buffer"
	"repro/internal/storage/device"
	"repro/internal/storage/file"
)

// testEnv builds a full environment: a virtual "disk" volume for base
// tables, a virtual temp volume, and a pool.
type testEnv struct {
	*Env
	base *file.Volume
	pool *buffer.Pool
}

func newTestEnv(t testing.TB, frames int) *testEnv {
	t.Helper()
	reg := device.NewRegistry()
	baseID := reg.NextID()
	if err := reg.Mount(device.NewMem(baseID)); err != nil {
		t.Fatal(err)
	}
	tempID := reg.NextID()
	if err := reg.Mount(device.NewMem(tempID)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.CloseAll() })
	pool := buffer.NewPool(reg, frames, buffer.TwoLevel)
	// Every test using this env gets the pin-balance assertion for free:
	// cleanups run LIFO, so this fires after the test body but before the
	// registry closes. A query that returns with pins outstanding has lost
	// track of buffer ownership even if its answer was right.
	t.Cleanup(func() {
		if n := pool.Stats().CurrentlyFixedHint; n != 0 {
			t.Errorf("pin leak: %d pins outstanding at test end", n)
		}
	})
	base := file.NewVolume(pool, baseID)
	temp := file.NewVolume(pool, tempID)
	return &testEnv{Env: NewEnv(pool, temp), base: base, pool: pool}
}

// checkNoPinLeak asserts that all buffer pins are balanced.
func (e *testEnv) checkNoPinLeak(t testing.TB) {
	t.Helper()
	if n := e.pool.Stats().CurrentlyFixedHint; n != 0 {
		t.Fatalf("pin leak: %d pins outstanding", n)
	}
}

var empSchema = record.MustSchema(
	record.Field{Name: "id", Type: record.TInt},
	record.Field{Name: "dept", Type: record.TInt},
	record.Field{Name: "salary", Type: record.TFloat},
	record.Field{Name: "name", Type: record.TString},
)

// makeEmp creates an employee table with n rows: id=i, dept=i%ndept,
// salary=1000+i, name="emp-<i>".
func (e *testEnv) makeEmp(t testing.TB, name string, n, ndept int) *file.File {
	t.Helper()
	f, err := e.base.Create(name, empSchema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		data := empSchema.MustEncode(
			record.Int(int64(i)),
			record.Int(int64(i%ndept)),
			record.Float(1000+float64(i)),
			record.Str(fmt.Sprintf("emp-%d", i)),
		)
		if _, err := f.Insert(data); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// makeInts creates a one-column int table from the given values.
func (e *testEnv) makeInts(t testing.TB, name string, vals ...int64) *file.File {
	t.Helper()
	s := record.MustSchema(record.Field{Name: "v", Type: record.TInt})
	f, err := e.base.Create(name, s)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		if _, err := f.Insert(s.MustEncode(record.Int(v))); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// makePairs creates a two-int-column table.
func (e *testEnv) makePairs(t testing.TB, name string, pairs [][2]int64) *file.File {
	t.Helper()
	s := record.MustSchema(
		record.Field{Name: "a", Type: record.TInt},
		record.Field{Name: "b", Type: record.TInt},
	)
	f, err := e.base.Create(name, s)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if _, err := f.Insert(s.MustEncode(record.Int(p[0]), record.Int(p[1]))); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func scanOf(t testing.TB, f *file.File) *FileScan {
	t.Helper()
	s, err := NewFileScan(f)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// intsOf extracts column col as int64s from collected rows.
func intsOf(rows [][]record.Value, col int) []int64 {
	out := make([]int64, len(rows))
	for i, r := range rows {
		out[i] = r[col].I
	}
	return out
}

func sortedInts(in []int64) []int64 {
	out := append([]int64(nil), in...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalInts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func shuffled(n int, seed int64) []int64 {
	r := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i, v := range r.Perm(n) {
		out[i] = int64(v)
	}
	return out
}

package plan

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/record"
	"repro/internal/storage/btree"
	"repro/internal/storage/buffer"
	"repro/internal/storage/device"
	"repro/internal/storage/file"
)

// corruptions are the ways the stored emp record of id 200 goes bad: cut
// 3 bytes short (its name's end offset then runs past it), cut 20 bytes
// short (into the fixed area), and its name's end offset, at byte 24,
// pointing past its end.
var corruptions = []struct {
	name    string
	corrupt func([]byte) []byte
}{
	{"cut3", func(d []byte) []byte { return d[:len(d)-3] }},
	{"cut20", func(d []byte) []byte { return d[:len(d)-20] }},
	{"offset", func(d []byte) []byte { d[24] = 0xff; return d }},
}

// corruptDB builds emp (300 rows: id=i, dept=i%8, salary=1000+i,
// name=emp-i), its partitions emp.0 and emp.1, the index emp_id on id,
// and dept (dno, dname), with the record of id 200 corrupted in emp and
// in emp.0. It returns where that record lies in emp.
func corruptDB(t *testing.T, corrupt func([]byte) []byte) (*core.Env, *buffer.Pool, VolumeCatalog, record.RID) {
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
	pool := buffer.NewPool(reg, 256, buffer.TwoLevel)
	vol := file.NewVolume(pool, baseID)
	emp := record.MustSchema(
		record.Field{Name: "id", Type: record.TInt},
		record.Field{Name: "dept", Type: record.TInt},
		record.Field{Name: "salary", Type: record.TFloat},
		record.Field{Name: "name", Type: record.TString},
	)
	create := func(name string, s *record.Schema) *file.File {
		f, err := vol.Create(name, s)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	insert := func(f *file.File, data []byte) record.RID {
		rid, err := f.Insert(data)
		if err != nil {
			t.Fatal(err)
		}
		return rid
	}
	f, parts := create("emp", emp), []*file.File{create("emp.0", emp), create("emp.1", emp)}
	tree, err := btree.Create(pool, baseID)
	if err != nil {
		t.Fatal(err)
	}
	var bad record.RID
	for i := 0; i < 300; i++ {
		data := emp.MustEncode(record.Int(int64(i)), record.Int(int64(i%8)), record.Float(1000+float64(i)), record.Str(fmt.Sprintf("emp-%d", i)))
		if i == 200 {
			data = corrupt(data)
		}
		rid := insert(f, data)
		if i == 200 {
			bad = rid
		}
		insert(parts[i%2], data)
		if err := tree.Insert(btree.EncodeKey(record.Int(int64(i))), rid); err != nil {
			t.Fatal(err)
		}
	}
	vol.SaveIndex("emp_id", tree)
	dept := record.MustSchema(record.Field{Name: "dno", Type: record.TInt}, record.Field{Name: "dname", Type: record.TString})
	d := create("dept", dept)
	for i := 0; i < 8; i++ {
		insert(d, dept.MustEncode(record.Int(int64(i)), record.Str(fmt.Sprintf("dept-%d", i))))
	}
	return core.NewEnv(pool, file.NewVolume(pool, tempID)), pool, VolumeCatalog{vol}, bad
}

// entryOps are the operators run over a corrupt source (the first %s),
// with the expression mode (the second %s) where the stage takes one.
var entryOps = map[string]string{
	"filter":      "%s | filter %s salary > 1.0",
	"filter-like": "%s | filter %s name like 'a%%'",
	"project":     "%s | project %s id, name, salary * 2.0 as s",
	"join-probe":  "with d = scan dept\n%s | join hash d on dept = dno | project %s name, dname",
	"join-build":  "with e = %s\nscan dept | join hash e on dno = dept | project %s name, dname",
	"agg":         "%s | filter %s salary > 1.0 | agg group name compute count, sum(salary)",
}

// TestCorruptRecordFailsAtEntry runs each operator over a file scan and
// an index scan of an emp file holding one corrupt record, in both
// expression modes and at batch sizes 1, 7 and 83. The record is checked
// where it enters: each query fails with an error naming the file, page
// and slot, no support function panics on the record, and after Close no
// pin and no temp file is left.
func TestCorruptRecordFailsAtEntry(t *testing.T) {
	sources := map[string]string{"filescan": "scan emp", "indexscan": "iscan emp emp_id 0 299"}
	for _, c := range corruptions {
		env, pool, cat, bad := corruptDB(t, c.corrupt)
		where := fmt.Sprintf("%q page %s slot %d", "emp", bad.PageID, bad.Slot)
		for src, scan := range sources {
			for op, tmpl := range entryOps {
				for _, mode := range []string{"compiled", "interpreted"} {
					for _, size := range []int{1, 7, 83} {
						name := fmt.Sprintf("%s/%s/%s/%s/batch=%d", c.name, src, op, mode, size)
						script := fmt.Sprintf(tmpl, scan, mode)
						err := runCorrupt(t, env, cat, script, size)
						if err == nil || !strings.Contains(err.Error(), src+" "+where) {
							t.Errorf("%s: error %v, want one naming %s", name, err, where)
						}
						if n := pool.Stats().CurrentlyFixedHint; n != 0 {
							t.Fatalf("%s: %d pins left after Close", name, n)
						}
						if n := len(env.Temp.List()); n != 0 {
							t.Fatalf("%s: %d temp files left after Close", name, n)
						}
					}
				}
			}
		}
	}
}

// TestCorruptRecordUnderExchange runs the corrupt partition behind
// exchange producers=2: the producer's error comes back to the consumer,
// and no producer goroutine panics the process.
func TestCorruptRecordUnderExchange(t *testing.T) {
	for _, c := range corruptions {
		env, pool, cat, _ := corruptDB(t, c.corrupt)
		for _, mode := range []string{"compiled", "interpreted"} {
			for _, size := range []int{1, 7, 83} {
				script := fmt.Sprintf("pscan emp 2 | filter %s name like 'a%%' | exchange producers=2 packet=8 | agg group name compute count", mode)
				err := runCorrupt(t, env, cat, script, size)
				if err == nil || !strings.Contains(err.Error(), `"emp.0" page`) {
					t.Errorf("%s/%s/batch=%d: error %v, want one naming emp.0", c.name, mode, size, err)
				}
				if n := pool.Stats().CurrentlyFixedHint; n != 0 {
					t.Fatalf("%s/%s/batch=%d: %d pins left after Close", c.name, mode, size, n)
				}
			}
		}
	}
}

// runCorrupt builds and drains script at the given batch size and
// returns the error.
func runCorrupt(t *testing.T, env *core.Env, cat Catalog, script string, size int) error {
	t.Helper()
	n, err := Parse(script)
	if err != nil {
		t.Fatalf("%q: %v", script, err)
	}
	_, err = Run(env, cat, n, size)
	return err
}

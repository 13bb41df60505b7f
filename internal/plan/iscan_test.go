package plan

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/record"
	"repro/internal/storage/btree"
	"repro/internal/storage/buffer"
	"repro/internal/storage/device"
	"repro/internal/storage/file"
)

// durableDB builds a formatted disk volume with an indexed table.
func durableDB(t *testing.T) (*core.Env, VolumeCatalog) {
	t.Helper()
	reg := device.NewRegistry()
	baseID := reg.NextID()
	d, err := device.NewDisk(baseID, filepath.Join(t.TempDir(), "db"), 8192)
	if err != nil {
		t.Fatal(err)
	}
	reg.Mount(d)
	tempID := reg.NextID()
	reg.Mount(device.NewMem(tempID))
	t.Cleanup(func() { reg.CloseAll() })
	pool := buffer.NewPool(reg, 512, buffer.TwoLevel)
	vol, err := file.Format(pool, baseID)
	if err != nil {
		t.Fatal(err)
	}

	s := record.MustSchema(
		record.Field{Name: "id", Type: record.TInt},
		record.Field{Name: "v", Type: record.TInt},
	)
	f, err := vol.Create("t", s)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := btree.Create(pool, baseID)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		rid, err := f.Insert(s.MustEncode(record.Int(int64(i)), record.Int(int64(i*i%977))))
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.Insert(btree.EncodeKey(record.Int(int64(i))), rid); err != nil {
			t.Fatal(err)
		}
	}
	vol.SaveIndex("t_id", tree)
	if err := vol.Save(); err != nil {
		t.Fatal(err)
	}
	env := core.NewEnv(pool, file.NewVolume(pool, tempID))
	return env, VolumeCatalog{vol}
}

func TestPlanIndexScan(t *testing.T) {
	env, cat := durableDB(t)
	n, err := Parse("iscan t t_id 100 109 | project id")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Run(env, cat, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(rows))
	}
	for i, r := range rows {
		if r[0].I != int64(100+i) {
			t.Fatalf("row %d = %v (index order)", i, r)
		}
	}
}

func TestPlanIndexScanUnbounded(t *testing.T) {
	env, cat := durableDB(t)
	n, err := Parse("iscan t t_id")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Run(env, cat, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1000 {
		t.Fatalf("rows = %d", len(rows))
	}
	n, err = Parse("iscan t t_id 990")
	if err != nil {
		t.Fatal(err)
	}
	rows, err = Run(env, cat, n, 0)
	if err != nil || len(rows) != 10 {
		t.Fatalf("lower-bounded rows = %d, %v", len(rows), err)
	}
}

func TestPlanIndexScanErrors(t *testing.T) {
	env, cat := durableDB(t)
	for _, src := range []string{
		"iscan t", "iscan t t_id x", "iscan t t_id 1 2 3", "scan t | iscan t t_id",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
	n, _ := Parse("iscan t nosuchindex")
	if _, err := Run(env, cat, n, 0); err == nil {
		t.Fatal("unknown index accepted")
	}
	// MapCatalog has no index support.
	n2, _ := Parse("iscan t t_id")
	if _, err := Run(env, MapCatalog{}, n2, 0); err == nil {
		t.Fatal("index scan on plain catalog accepted")
	}
}

func TestPlanIndexScanExplain(t *testing.T) {
	n, err := Parse("iscan t t_id 5 9 | filter v > 0")
	if err != nil {
		t.Fatal(err)
	}
	out := Explain(n)
	if !strings.Contains(out, "iscan t via t_id from 5 to 9") {
		t.Fatalf("Explain = %q", out)
	}
}

package file

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/record"
	"repro/internal/storage/btree"
	"repro/internal/storage/buffer"
	"repro/internal/storage/device"
)

// durableEnv formats a disk-backed volume at path.
func durableEnv(t *testing.T, path string) (*buffer.Pool, *Volume) {
	t.Helper()
	reg := device.NewRegistry()
	id := reg.NextID()
	d, err := device.NewDisk(id, path, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Mount(d); err != nil {
		t.Fatal(err)
	}
	pool := buffer.NewPool(reg, 256, buffer.TwoLevel)
	vol, err := Format(pool, id)
	if err != nil {
		t.Fatal(err)
	}
	return pool, vol
}

// reopen mounts the existing disk at path as a fresh pool + volume.
func reopen(t *testing.T, path string) (*buffer.Pool, *Volume, func()) {
	t.Helper()
	reg := device.NewRegistry()
	id := reg.NextID()
	d, err := device.OpenDisk(id, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Mount(d); err != nil {
		t.Fatal(err)
	}
	pool := buffer.NewPool(reg, 256, buffer.TwoLevel)
	vol, err := OpenVolume(pool, id)
	if err != nil {
		t.Fatal(err)
	}
	return pool, vol, func() { reg.CloseAll() }
}

var persistSchema = record.MustSchema(
	record.Field{Name: "id", Type: record.TInt},
	record.Field{Name: "name", Type: record.TString},
)

func TestDurableVolumeRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol")
	pool, vol := durableEnv(t, path)

	f, err := vol.Create("people", persistSchema)
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		_, err := f.Insert(persistSchema.MustEncode(record.Int(int64(i)), record.Str(fmt.Sprintf("p-%d", i))))
		if err != nil {
			t.Fatal(err)
		}
	}
	g, err := vol.Create("empty", nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = g
	if err := vol.Save(); err != nil {
		t.Fatal(err)
	}
	if err := pool.Registry().CloseAll(); err != nil {
		t.Fatal(err)
	}

	// Remount from disk with a cold buffer pool.
	_, vol2, done := reopen(t, path)
	defer done()
	names := vol2.List()
	if len(names) != 2 || names[0] != "empty" || names[1] != "people" {
		t.Fatalf("List after remount = %v", names)
	}
	f2, err := vol2.Open("people")
	if err != nil {
		t.Fatal(err)
	}
	if f2.Records() != n {
		t.Fatalf("Records = %d after remount, want %d", f2.Records(), n)
	}
	if !f2.Schema().Equal(persistSchema) {
		t.Fatalf("schema lost: %v", f2.Schema())
	}
	sc := f2.NewScan()
	defer sc.Close()
	count := 0
	for {
		r, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if persistSchema.GetInt(r.Data, 0) != int64(count) {
			t.Fatalf("record %d corrupt after remount", count)
		}
		count++
		r.Unfix()
	}
	if count != n {
		t.Fatalf("scanned %d after remount, want %d", count, n)
	}
}

// TestOpenVolumeCorruptSlot remounts a volume whose catalog page holds a
// slot pointing past the page: the remount fails naming the slot.
func TestOpenVolumeCorruptSlot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol")
	pool, vol := durableEnv(t, path)
	if _, err := vol.Create("people", persistSchema); err != nil {
		t.Fatal(err)
	}
	if err := vol.Save(); err != nil {
		t.Fatal(err)
	}
	fr, err := pool.Fix(pid(vol.dev, vol.vtocRoot))
	if err != nil {
		t.Fatal(err)
	}
	page{fr.Data()}.setSlot(0, 5000, 3)
	pool.Unfix(fr, true)
	if err := pool.FlushAll(0); err != nil {
		t.Fatal(err)
	}
	if err := pool.Registry().CloseAll(); err != nil {
		t.Fatal(err)
	}

	reg := device.NewRegistry()
	id := reg.NextID()
	d, err := device.OpenDisk(id, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Mount(d); err != nil {
		t.Fatal(err)
	}
	defer reg.CloseAll()
	if _, err := OpenVolume(buffer.NewPool(reg, 16, buffer.TwoLevel), id); err == nil || !strings.Contains(err.Error(), "corrupt slot 0") {
		t.Fatalf("OpenVolume over a corrupt catalog slot: err = %v", err)
	}
}

func TestDurableVolumeAppendsAfterRemount(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol")
	_, vol := durableEnv(t, path)
	f, _ := vol.Create("t", persistSchema)
	for i := 0; i < 100; i++ {
		f.Insert(persistSchema.MustEncode(record.Int(int64(i)), record.Str("x")))
	}
	if err := vol.Save(); err != nil {
		t.Fatal(err)
	}
	vol.pool.Registry().CloseAll()

	_, vol2, done := reopen(t, path)
	f2, err := vol2.Open("t")
	if err != nil {
		t.Fatal(err)
	}
	for i := 100; i < 200; i++ {
		if _, err := f2.Insert(persistSchema.MustEncode(record.Int(int64(i)), record.Str("y"))); err != nil {
			t.Fatal(err)
		}
	}
	if err := vol2.Save(); err != nil {
		t.Fatal(err)
	}
	done()

	_, vol3, done3 := reopen(t, path)
	defer done3()
	f3, err := vol3.Open("t")
	if err != nil {
		t.Fatal(err)
	}
	if f3.Records() != 200 {
		t.Fatalf("Records = %d after second remount", f3.Records())
	}
}

func TestDurableIndexRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol")
	pool, vol := durableEnv(t, path)
	f, _ := vol.Create("t", persistSchema)
	tree, err := btree.Create(pool, vol.dev)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	for i := 0; i < n; i++ {
		rid, err := f.Insert(persistSchema.MustEncode(record.Int(int64(i)), record.Str("v")))
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
	pool.Registry().CloseAll()

	_, vol2, done := reopen(t, path)
	defer done()
	if got := vol2.Indexes(); len(got) != 1 || got[0] != "t_id" {
		t.Fatalf("Indexes = %v", got)
	}
	tree2, err := vol2.OpenIndex("t_id")
	if err != nil {
		t.Fatal(err)
	}
	if tree2.Len() != n {
		t.Fatalf("index Len = %d after remount", tree2.Len())
	}
	f2, _ := vol2.Open("t")
	rids, err := tree2.Lookup(btree.EncodeKey(record.Int(123)))
	if err != nil || len(rids) != 1 {
		t.Fatalf("Lookup = %v, %v", rids, err)
	}
	rec, err := f2.Fetch(rids[0])
	if err != nil {
		t.Fatal(err)
	}
	if persistSchema.GetInt(rec.Data, 0) != 123 {
		t.Fatal("index points at wrong record after remount")
	}
	rec.Unfix()
}

func TestDurableVTOCSpillsAcrossPages(t *testing.T) {
	// Enough files that the VTOC needs continuation pages, saved twice to
	// exercise the rewrite path that frees the old chain.
	path := filepath.Join(t.TempDir(), "vol")
	_, vol := durableEnv(t, path)
	const n = 200
	for i := 0; i < n; i++ {
		if _, err := vol.Create(fmt.Sprintf("table-with-a-rather-long-name-%04d", i), persistSchema); err != nil {
			t.Fatal(err)
		}
	}
	if err := vol.Save(); err != nil {
		t.Fatal(err)
	}
	if err := vol.Save(); err != nil {
		t.Fatal(err)
	}
	vol.pool.Registry().CloseAll()

	_, vol2, done := reopen(t, path)
	defer done()
	if got := len(vol2.List()); got != n {
		t.Fatalf("remounted %d files, want %d", got, n)
	}
}

func TestSaveOnNonDurableVolume(t *testing.T) {
	reg := device.NewRegistry()
	id := reg.NextID()
	reg.Mount(device.NewMem(id))
	defer reg.CloseAll()
	pool := buffer.NewPool(reg, 32, buffer.TwoLevel)
	vol := NewVolume(pool, id)
	if err := vol.Save(); err == nil {
		t.Fatal("Save on non-durable volume succeeded")
	}
	if _, err := OpenVolume(pool, id); err == nil {
		t.Fatal("OpenVolume on memory device succeeded")
	}
	if _, err := Format(pool, id); err == nil {
		t.Fatal("Format on memory device succeeded")
	}
}

func TestFormatRequiresFreshDevice(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol")
	reg := device.NewRegistry()
	id := reg.NextID()
	d, err := device.NewDisk(id, path, 256)
	if err != nil {
		t.Fatal(err)
	}
	reg.Mount(d)
	defer reg.CloseAll()
	pool := buffer.NewPool(reg, 32, buffer.TwoLevel)
	if _, err := d.AllocPage(); err != nil { // steal the first page
		t.Fatal(err)
	}
	if _, err := Format(pool, id); err == nil {
		t.Fatal("Format on used device succeeded")
	}
}

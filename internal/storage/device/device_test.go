package device

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/record"
)

func newTestDisk(t *testing.T, capacity uint32) *Disk {
	t.Helper()
	d, err := NewDisk(1, filepath.Join(t.TempDir(), "disk"), capacity)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func pageOf(b byte) []byte {
	p := make([]byte, PageSize)
	for i := range p {
		p[i] = b
	}
	return p
}

func TestDiskAllocWriteRead(t *testing.T) {
	d := newTestDisk(t, 16)
	p1, err := d.AllocPage()
	if err != nil {
		t.Fatal(err)
	}
	if p1 == 0 {
		t.Fatal("allocated page 0 (reserved)")
	}
	p2, _ := d.AllocPage()
	if p1 == p2 {
		t.Fatal("duplicate page allocation")
	}
	if d.Allocated() != 2 {
		t.Fatalf("Allocated = %d, want 2", d.Allocated())
	}
	want := pageOf(0xAB)
	if err := d.WritePage(p1, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PageSize)
	if err := d.ReadPage(p1, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("read differs from write")
	}
	// Unwritten allocated page reads as zeros.
	if err := d.ReadPage(p2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, PageSize)) {
		t.Fatal("fresh page not zeroed")
	}
}

func TestDiskFreeAndReuse(t *testing.T) {
	d := newTestDisk(t, 4)
	var pages []uint32
	for {
		p, err := d.AllocPage()
		if err != nil {
			break
		}
		pages = append(pages, p)
	}
	// Capacity 4 minus the superblock and one bitmap page leaves 3.
	if len(pages) != 3 {
		t.Fatalf("allocated %d pages from capacity-4 disk, want 3", len(pages))
	}
	if _, err := d.AllocPage(); err == nil {
		t.Fatal("allocation beyond capacity succeeded")
	}
	if err := d.FreePage(pages[1]); err != nil {
		t.Fatal(err)
	}
	if err := d.FreePage(pages[1]); err == nil {
		t.Fatal("double free succeeded")
	}
	p, err := d.AllocPage()
	if err != nil {
		t.Fatal(err)
	}
	if p != pages[1] {
		t.Fatalf("reused page %d, want %d", p, pages[1])
	}
}

func TestDiskBoundsChecks(t *testing.T) {
	d := newTestDisk(t, 4)
	buf := make([]byte, PageSize)
	if err := d.ReadPage(0, buf); err == nil {
		t.Fatal("read of page 0 succeeded")
	}
	if err := d.ReadPage(99, buf); err == nil {
		t.Fatal("read beyond capacity succeeded")
	}
	if err := d.WritePage(1, []byte{1}); err == nil {
		t.Fatal("short write buffer accepted")
	}
	if err := d.ReadPage(1, []byte{1}); err == nil {
		t.Fatal("short read buffer accepted")
	}
	if _, err := NewDisk(1, filepath.Join(t.TempDir(), "x"), 0); err == nil {
		t.Fatal("zero capacity accepted")
	}
}

func TestDiskConcurrentAlloc(t *testing.T) {
	d := newTestDisk(t, 1024)
	const workers, each = 8, 64
	var wg sync.WaitGroup
	pages := make([][]uint32, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				p, err := d.AllocPage()
				if err != nil {
					t.Error(err)
					return
				}
				pages[w] = append(pages[w], p)
			}
		}(w)
	}
	wg.Wait()
	seen := map[uint32]bool{}
	for _, ps := range pages {
		for _, p := range ps {
			if seen[p] {
				t.Fatalf("page %d allocated twice", p)
			}
			seen[p] = true
		}
	}
	if len(seen) != workers*each {
		t.Fatalf("allocated %d unique pages, want %d", len(seen), workers*each)
	}
}

func TestDiskPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "disk")
	d, err := NewDisk(1, path, 64)
	if err != nil {
		t.Fatal(err)
	}
	p1, _ := d.AllocPage()
	p2, _ := d.AllocPage()
	want := pageOf(0x5A)
	if err := d.WritePage(p1, want); err != nil {
		t.Fatal(err)
	}
	if err := d.FreePage(p2); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Remount: allocation state and data must survive.
	d2, err := OpenDisk(1, path)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Allocated() != 1 {
		t.Fatalf("Allocated = %d after remount, want 1", d2.Allocated())
	}
	got := make([]byte, PageSize)
	if err := d2.ReadPage(p1, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("page data lost across remount")
	}
	// p2 was freed: it must be reusable, and p1 must not be reallocated.
	p3, err := d2.AllocPage()
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Fatal("remounted disk reallocated a live page")
	}
	if p3 != p2 {
		t.Fatalf("expected freed page %d to be reused, got %d", p2, p3)
	}
}

func TestOpenDiskRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk")
	if err := osWriteFile(path, make([]byte, PageSize*2)); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDisk(1, path); err == nil {
		t.Fatal("garbage file accepted as disk")
	}
	if _, err := OpenDisk(1, filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestNewDiskTooSmallForMetadata(t *testing.T) {
	if _, err := NewDisk(1, filepath.Join(t.TempDir(), "tiny"), 1); err == nil {
		t.Fatal("capacity 1 accepted (no room for metadata)")
	}
}

func TestMemDevice(t *testing.T) {
	m := NewMem(7)
	if m.ID() != 7 {
		t.Fatal("wrong id")
	}
	p, err := m.AllocPage()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	// Fresh page reads as zeros.
	if err := m.ReadPage(p, buf); err != nil {
		t.Fatal(err)
	}
	want := pageOf(0x42)
	if err := m.WritePage(p, want); err != nil {
		t.Fatal(err)
	}
	if err := m.ReadPage(p, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("read differs from write")
	}
	// Nonexistent pages error.
	if err := m.ReadPage(999, buf); err == nil {
		t.Fatal("read of unallocated virtual page succeeded")
	}
	if err := m.WritePage(999, want); err == nil {
		t.Fatal("write of unallocated virtual page succeeded")
	}
	if err := m.FreePage(p); err != nil {
		t.Fatal(err)
	}
	if err := m.FreePage(p); err == nil {
		t.Fatal("double free succeeded")
	}
	if m.Allocated() != 0 {
		t.Fatalf("Allocated = %d after free", m.Allocated())
	}
	// Freed page numbers are recycled.
	p2, _ := m.AllocPage()
	if p2 != p {
		t.Fatalf("freed page not recycled: got %d, want %d", p2, p)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	id := r.NextID()
	m := NewMem(id)
	if err := r.Mount(m); err != nil {
		t.Fatal(err)
	}
	if err := r.Mount(m); err == nil {
		t.Fatal("double mount succeeded")
	}
	got, err := r.Get(id)
	if err != nil || got != Device(m) {
		t.Fatalf("Get = %v, %v", got, err)
	}
	if _, err := r.Get(record.DeviceID(99)); err == nil {
		t.Fatal("Get of unmounted id succeeded")
	}
	// NextID never collides with mounted ids.
	if r.NextID() == id {
		t.Fatal("NextID reused a mounted id")
	}
	if err := r.CloseAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get(id); err == nil {
		t.Fatal("device survived CloseAll")
	}
}

func osWriteFile(path string, data []byte) error { return os.WriteFile(path, data, 0o644) }

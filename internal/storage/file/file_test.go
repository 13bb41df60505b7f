package file

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/record"
	"repro/internal/storage/buffer"
	"repro/internal/storage/device"
)

func env(t *testing.T, frames int) (*buffer.Pool, *Volume, *Volume) {
	t.Helper()
	reg := device.NewRegistry()
	diskID := reg.NextID()
	d, err := device.NewDisk(diskID, filepath.Join(t.TempDir(), "disk"), 8192)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Mount(d); err != nil {
		t.Fatal(err)
	}
	memID := reg.NextID()
	if err := reg.Mount(device.NewMem(memID)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.CloseAll() })
	pool := buffer.NewPool(reg, frames, buffer.TwoLevel)
	return pool, NewVolume(pool, diskID), NewVolume(pool, memID)
}

func TestCreateOpenDelete(t *testing.T) {
	_, vol, _ := env(t, 16)
	f, err := vol.Create("emp", nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.Name() != "emp" || f.Pages() != 1 || f.Records() != 0 {
		t.Fatalf("fresh file: pages=%d records=%d", f.Pages(), f.Records())
	}
	if _, err := vol.Create("emp", nil); err == nil {
		t.Fatal("duplicate create succeeded")
	}
	if _, err := vol.Open("emp"); err != nil {
		t.Fatal(err)
	}
	if _, err := vol.Open("none"); err == nil {
		t.Fatal("open of missing file succeeded")
	}
	if got := vol.List(); len(got) != 1 || got[0] != "emp" {
		t.Fatalf("List = %v", got)
	}
	if err := vol.Delete("emp"); err != nil {
		t.Fatal(err)
	}
	if err := vol.Delete("emp"); err == nil {
		t.Fatal("double delete succeeded")
	}
	if _, err := vol.Open("emp"); err == nil {
		t.Fatal("open after delete succeeded")
	}
}

func TestInsertFetch(t *testing.T) {
	_, vol, _ := env(t, 16)
	f, _ := vol.Create("t", nil)
	rid, err := f.Insert([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	r, err := f.Fetch(rid)
	if err != nil {
		t.Fatal(err)
	}
	if string(r.Data) != "hello" {
		t.Fatalf("Fetch = %q", r.Data)
	}
	r.Unfix()
	if f.Records() != 1 {
		t.Fatalf("Records = %d", f.Records())
	}
	// Fetch with wrong device errors.
	bad := rid
	bad.Dev = 99
	if _, err := f.Fetch(bad); err == nil {
		t.Fatal("cross-device fetch succeeded")
	}
	// Fetch of nonexistent slot errors.
	bad = rid
	bad.Slot = 42
	if _, err := f.Fetch(bad); err == nil {
		t.Fatal("fetch of bogus slot succeeded")
	}
}

func TestInsertSpillsAcrossPages(t *testing.T) {
	pool, vol, _ := env(t, 64)
	f, _ := vol.Create("big", nil)
	data := make([]byte, 1000)
	const n = 50 // 50 * 1004 bytes >> one page
	rids := make([]record.RID, n)
	for i := 0; i < n; i++ {
		data[0] = byte(i)
		rid, err := f.Insert(data)
		if err != nil {
			t.Fatal(err)
		}
		rids[i] = rid
	}
	if f.Pages() < 2 {
		t.Fatalf("Pages = %d, want several", f.Pages())
	}
	for i, rid := range rids {
		r, err := f.Fetch(rid)
		if err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
		if r.Data[0] != byte(i) || len(r.Data) != 1000 {
			t.Fatalf("record %d corrupt", i)
		}
		r.Unfix()
	}
	if pool.Stats().CurrentlyFixedHint != 0 {
		t.Fatal("pin leak after insert/fetch")
	}
}

func TestRecordTooLarge(t *testing.T) {
	_, vol, _ := env(t, 16)
	f, _ := vol.Create("t", nil)
	if _, err := f.Insert(make([]byte, MaxRecordLen+1)); err == nil {
		t.Fatal("oversized record accepted")
	}
	if _, err := f.Insert(make([]byte, MaxRecordLen)); err != nil {
		t.Fatalf("max-size record rejected: %v", err)
	}
}

func TestScan(t *testing.T) {
	pool, vol, _ := env(t, 16)
	f, _ := vol.Create("t", nil)
	const n = 500
	for i := 0; i < n; i++ {
		if _, err := f.Insert([]byte(fmt.Sprintf("rec-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	s := f.NewScan()
	count := 0
	for {
		r, ok, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if want := fmt.Sprintf("rec-%04d", count); string(r.Data) != want {
			t.Fatalf("record %d = %q, want %q (storage order)", count, r.Data, want)
		}
		count++
		r.Unfix()
	}
	if count != n {
		t.Fatalf("scanned %d records, want %d", count, n)
	}
	s.Close()
	if pool.Stats().CurrentlyFixedHint != 0 {
		t.Fatal("pin leak after scan")
	}
	// Next after exhaustion keeps returning !ok.
	if _, ok, _ := s.Next(); ok {
		t.Fatal("Next after end returned a record")
	}
}

// corrupt overwrites rid's slot with an offset past the end of the page.
func corrupt(t *testing.T, f *File, rid record.RID) {
	t.Helper()
	fr, err := f.vol.pool.Fix(rid.PageID)
	if err != nil {
		t.Fatal(err)
	}
	page{fr.Data()}.setSlot(int(rid.Slot), 5000, 3)
	f.vol.pool.Unfix(fr, true)
}

// TestScanCorruptSlot holds a scan over a slot whose record lies outside
// its page to an error naming the slot: no panic, no record past it, and
// no pin left once the scan is closed. A fetch of the slot fails the same
// way.
func TestScanCorruptSlot(t *testing.T) {
	pool, vol, _ := env(t, 16)
	f, _ := vol.Create("t", nil)
	var rids []record.RID
	for i := 0; i < 10; i++ {
		rid, _ := f.Insert([]byte{byte(i)})
		rids = append(rids, rid)
	}
	corrupt(t, f, rids[3])
	s := f.NewScan()
	var got []byte
	var err error
	for {
		var run []Record
		if run, err = s.NextRun(nil, 2); err != nil || len(run) == 0 {
			break
		}
		for _, r := range run {
			got = append(got, r.Data[0])
		}
		UnfixBatch(run)
	}
	if err == nil || !strings.Contains(err.Error(), "corrupt slot 3") {
		t.Fatalf("scan over a corrupt slot: err = %v", err)
	}
	if string(got) != string([]byte{0, 1}) {
		t.Fatalf("scan returned %v before the corrupt slot, want [0 1]", got)
	}
	s.Close()
	if _, err := f.Fetch(rids[3]); err == nil || !strings.Contains(err.Error(), "corrupt slot 3") {
		t.Fatalf("fetch of a corrupt slot: err = %v", err)
	}
	if h := pool.Stats().CurrentlyFixedHint; h != 0 {
		t.Fatalf("%d pins left after the failed scan", h)
	}
}

// TestScanCorruptLink holds a scan over a page chain with a cycle to an
// error naming the file and the page holding the link, after at most the
// file's pages, with no pin left once the scan is closed: the first page
// linked to itself, and the last linked back to the first.
func TestScanCorruptLink(t *testing.T) {
	for _, c := range []struct {
		name string
		from int // the index in the chain of the page whose link is bent
	}{{"self", 0}, {"back-to-first", 2}} {
		t.Run(c.name, func(t *testing.T) {
			pool, vol, _ := env(t, 16)
			f, _ := vol.Create("t", nil)
			for f.Pages() < 3 {
				f.Insert(make([]byte, 500))
			}
			var chain []record.PageID
			for id := f.FirstPage(); id.Page != 0; {
				chain = append(chain, id)
				fr, err := pool.Fix(id)
				if err != nil {
					t.Fatal(err)
				}
				id = pid(id.Dev, page{fr.Data()}.next())
				pool.Unfix(fr, false)
			}
			if len(chain) != 3 {
				t.Fatalf("chain of %d pages, want 3", len(chain))
			}
			fr, err := pool.Fix(chain[c.from])
			if err != nil {
				t.Fatal(err)
			}
			page{fr.Data()}.setNext(chain[0].Page)
			pool.Unfix(fr, true)

			// The cap stops a scan that would go round the cycle for ever.
			s := f.NewScan()
			for n := 0; n <= 3*f.Records(); {
				var run []Record
				if run, err = s.NextRun(nil, 7); err != nil || len(run) == 0 {
					break
				}
				n += len(run)
				UnfixBatch(run)
			}
			want := fmt.Sprintf("file: scan %q page %s: next-page link", "t", chain[c.from])
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("scan over a page cycle: err = %v, want it to contain %q", err, want)
			}
			s.Close()
			if h := pool.Stats().CurrentlyFixedHint; h != 0 {
				t.Fatalf("%d pins left after the failed scan", h)
			}
		})
	}
}

func TestScanAbortMidwayReleasesPins(t *testing.T) {
	pool, vol, _ := env(t, 16)
	f, _ := vol.Create("t", nil)
	for i := 0; i < 100; i++ {
		f.Insert(make([]byte, 100))
	}
	s := f.NewScan()
	r, ok, err := s.Next()
	if err != nil || !ok {
		t.Fatal(err)
	}
	r.Unfix()
	s.Close()
	if pool.Stats().CurrentlyFixedHint != 0 {
		t.Fatal("pin leak after aborted scan")
	}
}

// TestScanNextRun holds page runs to the record-at-a-time scan: at run
// limits below, at and above a page's records and on to the end of the
// file, every run stays on one page, is short only where its page ends,
// carries exactly one pin per record, and the runs concatenate to what
// Next returns. A slice filled run by run, as a
// batch is, crosses a page boundary and releases in one UnfixBatch.
func TestScanNextRun(t *testing.T) {
	pool, vol, _ := env(t, 16)
	f, _ := vol.Create("t", nil)
	var rids []record.RID
	for i := 0; i < 300; i++ {
		rid, err := f.Insert([]byte(fmt.Sprintf("rec-%04d-%090d", i, 0)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	var want []string
	live := map[record.PageID]int{}
	s := f.NewScan()
	for {
		r, ok, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		want = append(want, string(r.Data))
		live[r.RID.PageID]++
		r.Unfix()
	}
	s.Close()
	if len(live) < 3 {
		t.Fatalf("fixture spans %d pages, want at least 3", len(live))
	}
	first := live[rids[0].PageID]

	for _, max := range []int{1, 7, first, first + 1, 1000} {
		s := f.NewScan()
		taken := map[record.PageID]int{}
		var got []string
		var run []Record
		for {
			var err error
			if run, err = s.NextRun(run[:0], max); err != nil {
				t.Fatal(err)
			}
			if len(run) == 0 {
				break
			}
			pg := run[0].RID.PageID
			for _, r := range run {
				if r.RID.PageID != pg {
					t.Fatalf("max %d: run spans pages %v and %v", max, pg, r.RID.PageID)
				}
				got = append(got, string(r.Data))
			}
			taken[pg] += len(run)
			if len(run) > max || (len(run) < max && taken[pg] != live[pg]) {
				t.Fatalf("max %d: run of %d on page %v with %d of %d taken", max, len(run), pg, taken[pg], live[pg])
			}
			// The scan's own pin on the page plus one per record.
			if h := pool.Stats().CurrentlyFixedHint; h != int64(len(run))+1 {
				t.Fatalf("max %d: %d pins held with a run of %d", max, h, len(run))
			}
			UnfixBatch(run)
		}
		if run, err := s.NextRun(run[:0], max); err != nil || len(run) != 0 {
			t.Fatalf("max %d: NextRun past the end = %d records, %v", max, len(run), err)
		}
		s.Close()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("max %d: runs gave %d records that differ from Next's %d", max, len(got), len(want))
		}
		if h := pool.Stats().CurrentlyFixedHint; h != 0 {
			t.Fatalf("max %d: %d pins left after the scan", max, h)
		}
	}

	s = f.NewScan()
	batch := make([]Record, 0, first+5)
	for len(batch) < cap(batch) {
		n := len(batch)
		var err error
		if batch, err = s.NextRun(batch, cap(batch)-n); err != nil {
			t.Fatal(err)
		}
		if len(batch) == n {
			break
		}
	}
	if len(batch) != cap(batch) || batch[0].RID.PageID == batch[len(batch)-1].RID.PageID {
		t.Fatalf("batch of %d/%d records did not fill across a page boundary", len(batch), cap(batch))
	}
	for i, r := range batch {
		if string(r.Data) != want[i] {
			t.Fatalf("batch record %d = %q, want %q", i, r.Data, want[i])
		}
	}
	UnfixBatch(batch)
	s.Close()
	if h := pool.Stats().CurrentlyFixedHint; h != 0 {
		t.Fatalf("%d pins left after the cross-page batch", h)
	}
}

// TestScanAcrossPages scans a file of many pages, more than fit in the
// pool at once, and leaves no pin behind.
func TestScanAcrossPages(t *testing.T) {
	pool, vol, _ := env(t, 8)
	f, _ := vol.Create("t", nil)
	for i := 0; i < 200; i++ {
		f.Insert(make([]byte, 500))
	}
	s := f.NewScan()
	count := 0
	for {
		r, ok, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		count++
		r.Unfix()
	}
	if count != 200 {
		t.Fatalf("scanned %d, want 200", count)
	}
	if h := pool.Stats().CurrentlyFixedHint; h != 0 {
		t.Fatalf("%d pins left after the scan", h)
	}
}

func TestVirtualFileOnMemDevice(t *testing.T) {
	pool, _, vmem := env(t, 8)
	f, err := vmem.Create("tmp", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Write far more data than the 8-frame pool can hold: eviction to the
	// virtual device must preserve it.
	const n = 100
	for i := 0; i < n; i++ {
		if _, err := f.Insert([]byte(fmt.Sprintf("intermediate-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	s := f.NewScan()
	count := 0
	for {
		r, ok, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if want := fmt.Sprintf("intermediate-%03d", count); string(r.Data) != want {
			t.Fatalf("virtual record %d = %q", count, r.Data)
		}
		count++
		r.Unfix()
	}
	if count != n {
		t.Fatalf("scanned %d, want %d", count, n)
	}
	// Deleting the virtual file releases its device pages.
	reg := pool.Registry()
	d, _ := reg.Get(f.FirstPage().Dev)
	if d.Allocated() == 0 {
		t.Fatal("expected allocated virtual pages before delete")
	}
	if err := vmem.Delete("tmp"); err != nil {
		t.Fatal(err)
	}
	if d.Allocated() != 0 {
		t.Fatalf("virtual device still holds %d pages after delete", d.Allocated())
	}
}

func TestInsertPinnedOwnership(t *testing.T) {
	pool, _, vmem := env(t, 8)
	f, _ := vmem.Create("tmp", nil)
	a := f.NewAppender()
	r, err := a.Append([]byte("owned"))
	a.Close()
	if err != nil {
		t.Fatal(err)
	}
	if pool.FixCount(r.RID.PageID) != 1 {
		t.Fatalf("FixCount = %d, want 1", pool.FixCount(r.RID.PageID))
	}
	// Share two extra pins, then release all three.
	r.Share(2)
	if pool.FixCount(r.RID.PageID) != 3 {
		t.Fatalf("FixCount = %d, want 3", pool.FixCount(r.RID.PageID))
	}
	r.Unfix()
	r2 := r
	r2.Unfix()
	r2.Unfix()
	if pool.Stats().CurrentlyFixedHint != 0 {
		t.Fatal("pin imbalance")
	}
	// Zero-value Record is safe to Unfix and Share.
	var zero Record
	zero.Unfix()
	zero.Share(1)
}

func TestSchemaInVTOC(t *testing.T) {
	_, vol, _ := env(t, 8)
	s := record.MustSchema(record.Field{Name: "x", Type: record.TInt})
	f, _ := vol.Create("t", s)
	g, _ := vol.Open("t")
	if !g.Schema().Equal(s) || !f.Schema().Equal(s) {
		t.Fatal("schema not preserved in VTOC")
	}
}

// Property: any sequence of variable-size inserts scans back in order.
func TestQuickInsertScanRoundTrip(t *testing.T) {
	prop := func(sizes []uint16) bool {
		_, vol, _ := env(t, 64)
		f, _ := vol.Create("q", nil)
		var want [][]byte
		for i, sz := range sizes {
			n := int(sz) % 2000
			data := make([]byte, n)
			for j := range data {
				data[j] = byte(i + j)
			}
			if _, err := f.Insert(data); err != nil {
				return false
			}
			want = append(want, data)
		}
		s := f.NewScan()
		defer s.Close()
		for _, w := range want {
			r, ok, err := s.Next()
			if err != nil || !ok {
				return false
			}
			if string(r.Data) != string(w) {
				r.Unfix()
				return false
			}
			r.Unfix()
		}
		_, ok, _ := s.Next()
		return !ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// scanCount scans the whole file, releasing every record.
func scanCount(t *testing.T, f *File) int {
	t.Helper()
	sc := f.NewScan()
	defer sc.Close()
	n := 0
	for {
		r, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return n
		}
		r.Unfix()
		n++
	}
}

// TestAppenderAccounting drives the append cursor through every way
// records enter a file — reserved slots, copies, batches — across page
// switches, and requires what the cursor defers to be exact afterwards:
// the VTOC counters after Close, after a rescan and a second cursor, and
// after reserves that fail; and every pin handed out released, with the
// cursor's own pin on the tail page gone.
func TestAppenderAccounting(t *testing.T) {
	pool, _, mem := env(t, 8)
	f, err := mem.Create("tmp", nil)
	if err != nil {
		t.Fatal(err)
	}
	const perPage = 13
	rec := bytes.Repeat([]byte{7}, 300) // perPage of these fill a page
	a := f.NewAppender()
	var held []Record
	for i := 0; i < 20; i++ {
		r, err := a.Reserve(len(rec))
		if err != nil {
			t.Fatal(err)
		}
		copy(r.Data, rec)
		held = append(held, r)
	}
	if _, err := a.Reserve(MaxRecordLen + 1); err == nil {
		t.Fatal("reserve beyond a page succeeded")
	}
	datas, batch := make([][]byte, 30), make([]Record, 30)
	for i := range datas {
		datas[i] = rec
	}
	if err := a.AppendBatch(datas, batch); err != nil {
		t.Fatal(err)
	}
	held = append(held, batch...)
	// Hold every record until the pool has no frame left for a new page:
	// that reserve fails, and leaves the cursor where it was.
	for {
		r, err := a.Append(rec)
		if err != nil {
			if !errors.Is(err, buffer.ErrBufferFull) {
				t.Fatal(err)
			}
			break
		}
		held = append(held, r)
	}
	if len(held) != 8*perPage {
		t.Fatalf("%d records fit 8 frames, want %d", len(held), 8*perPage)
	}
	UnfixBatch(held)
	r, err := a.Append(rec)
	if err != nil {
		t.Fatalf("append after the pool drained: %v", err)
	}
	r.Unfix()
	a.Close()

	check := func(when string, records int) {
		t.Helper()
		pages := (records + perPage - 1) / perPage
		if f.Records() != records || f.Pages() != pages {
			t.Fatalf("%s: VTOC says %d records on %d pages, want %d on %d", when, f.Records(), f.Pages(), records, pages)
		}
		if n := scanCount(t, f); n != records {
			t.Fatalf("%s: scan finds %d records, want %d", when, n, records)
		}
		if n := pool.PinnedFrames(); n != 0 {
			t.Fatalf("%s: %d frames still pinned", when, n)
		}
	}
	check("after close", 8*perPage+1)
	// A second cursor picks the tail page up where the first left it.
	for i := 0; i < perPage; i++ {
		if _, err := f.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	check("after reopening", 9*perPage+1)
	if err := mem.Delete("tmp"); err != nil {
		t.Fatal(err)
	}
	if n := pool.Stats().CurrentlyFixedHint; n != 0 {
		t.Fatalf("%d pins outstanding", n)
	}
}

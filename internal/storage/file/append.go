package file

import (
	"fmt"

	"repro/internal/record"
	"repro/internal/storage/buffer"
)

// Appender is a file's append cursor, the one path by which records
// enter a file. It keeps the tail page fixed from its first record to
// Close, so appending costs no buffer lookup until a page fills, and it
// hands out room for a record as a slot on that page: an operator builds
// a new record where it will live and passes it on already pinned
// ("complex operations like join that create new records have to fix
// them in the buffer before passing them on", paper §3).
//
// The VTOC is brought up to date when a page fills and at Close, not per
// record: Records and Pages are exact once the cursor is closed. An open
// Appender is the handle's only writer and holds one buffer frame; it is
// single-goroutine state, like an iterator.
type Appender struct {
	f    *File
	fr   *buffer.Frame // the tail page; nil until the first record
	pg   page
	page uint32
	// unsettled counts records placed since the VTOC was last updated;
	// owed counts those on the tail page whose pin is not yet granted.
	unsettled, owed int
}

// NewAppender opens the append cursor, waiting for the handle's previous
// one to close. Close must be called before the file is deleted.
func (f *File) NewAppender() *Appender {
	f.appendMu.Lock()
	return &Appender{f: f}
}

// slot makes room for an n-byte record at the end of the file and returns
// its bytes and RID. The record shares the cursor's own pin on the tail
// page until grant gives it one; a failure leaves the cursor as it was.
func (a *Appender) slot(n int) ([]byte, record.RID, error) {
	if n > MaxRecordLen {
		return nil, record.RID{}, fmt.Errorf("file: record of %d bytes exceeds max %d", n, MaxRecordLen)
	}
	v := a.f.vol
	if a.fr == nil {
		v.vtoc.Lock()
		last := a.f.meta.lastPage
		v.vtoc.Unlock()
		fr, err := v.pool.FixFor(pid(v.dev, last), a.f.meter)
		if err != nil {
			return nil, record.RID{}, err
		}
		a.fr, a.pg, a.page = fr, page{fr.Data()}, last
	}
	if a.pg.freeSpace() < n {
		// Allocate and link a fresh page.
		nfr, npid, err := v.pool.FixNewFor(v.dev, a.f.meter)
		if err != nil {
			return nil, record.RID{}, err
		}
		page{nfr.Data()}.init()
		a.pg.setNext(npid.Page)
		a.grant()
		v.pool.Unfix(a.fr, true)
		a.fr, a.pg, a.page = nfr, page{nfr.Data()}, npid.Page
		a.settle(1)
	}
	slot, b := a.pg.reserve(n)
	a.unsettled++
	return b, record.RID{PageID: pid(v.dev, a.page), Slot: uint16(slot)}, nil
}

// grant gives the records handed out on the tail page their own pins, in
// one Pin call.
func (a *Appender) grant() {
	if a.owed > 0 {
		a.f.vol.pool.Pin(a.fr, a.owed)
		a.owed = 0
	}
}

// settle records the cursor's progress in the VTOC: newPages pages linked
// behind the old tail, and the records placed since the last call.
func (a *Appender) settle(newPages int) {
	v := a.f.vol
	v.vtoc.Lock()
	a.f.meta.lastPage = a.page
	a.f.meta.pages += newPages
	a.f.meta.records += a.unsettled
	v.vtoc.Unlock()
	a.unsettled = 0
}

func (a *Appender) pinned(b []byte, rid record.RID) Record {
	a.owed++
	return Record{RID: rid, Data: b, frame: a.fr, pool: a.f.vol.pool}
}

// Reserve appends an n-byte record whose contents the caller writes into
// the returned record's Data, and transfers one pin on it to the caller.
func (a *Appender) Reserve(n int) (Record, error) {
	b, rid, err := a.slot(n)
	if err != nil {
		return Record{}, err
	}
	r := a.pinned(b, rid)
	a.grant()
	return r, nil
}

// Append appends a copy of data and returns it pinned.
func (a *Appender) Append(data []byte) (Record, error) {
	r, err := a.Reserve(len(data))
	if err == nil {
		copy(r.Data, data)
	}
	return r, err
}

// AppendBatch appends len(datas) records, filling out[i] with the pinned
// record of datas[i]. The per-record pins the ownership protocol requires
// are granted once per page, so the buffer pool is consulted once per
// page instead of once per record. On failure nothing stays pinned.
func (a *Appender) AppendBatch(datas [][]byte, out []Record) error {
	if len(datas) != len(out) {
		return fmt.Errorf("file: batch append of %d records into %d slots", len(datas), len(out))
	}
	for i, data := range datas {
		b, rid, err := a.slot(len(data))
		if err != nil {
			a.grant()
			UnfixBatch(out[:i])
			return err
		}
		copy(b, data)
		out[i] = a.pinned(b, rid)
	}
	a.grant()
	return nil
}

// Close brings the VTOC up to date and releases the tail page and the
// handle. The cursor must not be used afterwards.
func (a *Appender) Close() {
	if a.fr != nil {
		a.settle(0)
		a.f.vol.pool.Unfix(a.fr, true)
		a.fr = nil
	}
	a.f.appendMu.Unlock()
}

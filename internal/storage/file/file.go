package file

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/meter"
	"repro/internal/record"
	"repro/internal/storage/buffer"
)

// Volume couples one device with the buffer pool and holds the volume
// table of contents. As in the paper (§4.5), the VTOC is the only file
// system structure protected against concurrent modification: "an
// exclusive lock is held while an entry is inserted or deleted or while
// the VTOC is scanned for the descriptor for an external file".
type Volume struct {
	dev  record.DeviceID
	pool *buffer.Pool

	vtoc    sync.Mutex
	files   map[string]*meta
	indexes map[string]*indexMeta
	// statsDistinct holds per-field distinct-value estimates recorded by
	// Analyze, keyed by file name (see stats.go). Persisted alongside the
	// VTOC on durable volumes.
	statsDistinct map[string][]int64

	// Durable volumes (Format/OpenVolume) persist the VTOC in a page
	// chain rooted at vtocRoot; see vtoc.go.
	durable  bool
	vtocRoot uint32
}

type meta struct {
	name      string
	firstPage uint32
	lastPage  uint32
	pages     int
	records   int
	schema    *record.Schema // optional, recorded for catalog purposes
}

// NewVolume mounts a volume over a device already registered with the
// pool's device registry.
func NewVolume(pool *buffer.Pool, dev record.DeviceID) *Volume {
	return &Volume{
		dev:     dev,
		pool:    pool,
		files:   make(map[string]*meta),
		indexes: make(map[string]*indexMeta),
	}
}

// Create creates a file with one empty page. The schema is recorded in the
// VTOC for catalog purposes and may be nil.
func (v *Volume) Create(name string, schema *record.Schema) (*File, error) {
	return v.CreateWith(name, schema, nil)
}

// CreateWith is Create with per-query attribution: the initial page fix
// and every later pool interaction through the returned handle are
// accounted to m. A nil meter makes it exactly Create.
func (v *Volume) CreateWith(name string, schema *record.Schema, mtr *meter.Meter) (*File, error) {
	v.vtoc.Lock()
	if _, dup := v.files[name]; dup {
		v.vtoc.Unlock()
		return nil, fmt.Errorf("file: %q already exists on device %d", name, v.dev)
	}
	// Reserve the VTOC entry before allocating so concurrent creates of
	// the same name cannot both proceed.
	m := &meta{name: name, schema: schema}
	v.files[name] = m
	v.vtoc.Unlock()

	f, pgID, err := v.pool.FixNewFor(v.dev, mtr)
	if err != nil {
		v.vtoc.Lock()
		delete(v.files, name)
		v.vtoc.Unlock()
		return nil, err
	}
	page{f.Data()}.init()
	v.pool.Unfix(f, true)

	v.vtoc.Lock()
	m.firstPage, m.lastPage, m.pages = pgID.Page, pgID.Page, 1
	v.vtoc.Unlock()
	return &File{vol: v, meta: m, meter: mtr}, nil
}

// Open looks up an existing file in the VTOC.
func (v *Volume) Open(name string) (*File, error) {
	v.vtoc.Lock()
	defer v.vtoc.Unlock()
	m, ok := v.files[name]
	if !ok || m.firstPage == 0 {
		return nil, fmt.Errorf("file: %q not found on device %d", name, v.dev)
	}
	return &File{vol: v, meta: m}, nil
}

// Delete removes the file: its pages are discarded from the buffer (no
// write-back) and freed on the device, and the VTOC entry is removed.
func (v *Volume) Delete(name string) error {
	v.vtoc.Lock()
	m, ok := v.files[name]
	if ok {
		delete(v.files, name)
		delete(v.statsDistinct, name)
	}
	v.vtoc.Unlock()
	if !ok {
		return fmt.Errorf("file: %q not found on device %d", name, v.dev)
	}
	dev, err := v.pool.Registry().Get(v.dev)
	if err != nil {
		return err
	}
	for pg := m.firstPage; pg != 0; {
		// Read the next pointer before freeing.
		fr, err := v.pool.Fix(pid(v.dev, pg))
		if err != nil {
			return fmt.Errorf("file: delete %q: %w", name, err)
		}
		next := page{fr.Data()}.next()
		v.pool.Unfix(fr, false)
		if err := v.pool.Discard(pid(v.dev, pg)); err != nil {
			return err
		}
		if err := dev.FreePage(pg); err != nil {
			return err
		}
		pg = next
	}
	return nil
}

// List returns the names of all files on the volume, sorted.
func (v *Volume) List() []string {
	v.vtoc.Lock()
	defer v.vtoc.Unlock()
	names := make([]string, 0, len(v.files))
	for n := range v.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// File is a handle on one stored (or virtual) file.
type File struct {
	vol  *Volume
	meta *meta

	// meter, when set, receives per-query attribution for every buffer
	// fix this handle performs (scans, fetches, inserts, spills). Handles
	// are per-caller — Open returns a fresh one each time — so attaching
	// a meter to one handle never affects another query's view of the
	// same file.
	meter *meter.Meter

	// appendMu is held by the handle's open Appender: Volcano files have a
	// single writer in practice (no record-level concurrency control,
	// §4.5), but partitioned inserts from a data generator through one
	// handle are convenient to allow, and queue up here.
	appendMu sync.Mutex
}

// WithMeter returns a new handle on the same file whose buffer-pool
// activity is attributed to m. The original handle is unchanged.
func (f *File) WithMeter(m *meter.Meter) *File {
	return &File{vol: f.vol, meta: f.meta, meter: m}
}

// Name returns the file's VTOC name.
func (f *File) Name() string { return f.meta.name }

// Schema returns the schema recorded at creation (may be nil).
func (f *File) Schema() *record.Schema { return f.meta.schema }

// Pages returns the number of pages in the file.
func (f *File) Pages() int {
	f.vol.vtoc.Lock()
	defer f.vol.vtoc.Unlock()
	return f.meta.pages
}

// Records returns the number of live records in the file.
func (f *File) Records() int {
	f.vol.vtoc.Lock()
	defer f.vol.vtoc.Unlock()
	return f.meta.records
}

// FirstPage returns the PageID of the file's first page.
func (f *File) FirstPage() record.PageID {
	f.vol.vtoc.Lock()
	defer f.vol.vtoc.Unlock()
	return pid(f.vol.dev, f.meta.firstPage)
}

// Insert appends a record and returns its RID. The record is written,
// marked dirty and unpinned.
func (f *File) Insert(data []byte) (record.RID, error) {
	a := f.NewAppender()
	defer a.Close()
	slot, rid, err := a.slot(len(data))
	if err != nil {
		return record.RID{}, err
	}
	copy(slot, data)
	return rid, nil
}

// Fetch pins the record's page and returns the record. The caller owns the
// pin and must call Unfix.
func (f *File) Fetch(rid record.RID) (Record, error) {
	if rid.Dev != f.vol.dev {
		return Record{}, fmt.Errorf("file: RID %s is not on device %d", rid, f.vol.dev)
	}
	fr, err := f.vol.pool.FixFor(rid.PageID, f.meter)
	if err != nil {
		return Record{}, err
	}
	data, err := page{fr.Data()}.record(int(rid.Slot))
	if err != nil {
		f.vol.pool.Unfix(fr, false)
		return Record{}, fmt.Errorf("file: fetch %s: %w", rid, err)
	}
	return Record{RID: rid, Data: data, frame: fr, pool: f.vol.pool}, nil
}

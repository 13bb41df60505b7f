package file

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/record"
	"repro/internal/storage/btree"
	"repro/internal/storage/buffer"
	"repro/internal/storage/device"
)

// Durable volumes: the VTOC is persisted as a chain of slotted pages
// rooted at the device's first data page, holding one entry record per
// file or index. Format creates a fresh durable volume; OpenVolume
// remounts one; Volume.Save rewrites the VTOC, flushes dirty pages and
// syncs the device's allocation bitmap.

// vtocSchema describes one catalog entry.
//
//	kind 0: file  (first/last/pages/records used)
//	kind 1: index (aux1 = btree root page, aux2 = height, records = count)
//	kind 2: stats (aux1 = field count, schema field = comma-joined
//	        per-field distinct estimates; see stats.go)
var vtocSchema = record.MustSchema(
	record.Field{Name: "name", Type: record.TString},
	record.Field{Name: "kind", Type: record.TInt},
	record.Field{Name: "first", Type: record.TInt},
	record.Field{Name: "last", Type: record.TInt},
	record.Field{Name: "pages", Type: record.TInt},
	record.Field{Name: "records", Type: record.TInt},
	record.Field{Name: "aux1", Type: record.TInt},
	record.Field{Name: "aux2", Type: record.TInt},
	record.Field{Name: "schema", Type: record.TString},
)

const (
	vtocKindFile  = 0
	vtocKindIndex = 1
	vtocKindStats = 2
)

// indexMeta is a catalogued B+-tree.
type indexMeta struct {
	root   uint32
	height int
	count  int
}

// vtocRoot reports where a device's durable VTOC is rooted (the first
// data page of a disk device).
func vtocRoot(d device.Device) (uint32, error) {
	type firstDataPager interface{ FirstDataPage() uint32 }
	if fd, ok := d.(firstDataPager); ok {
		return fd.FirstDataPage(), nil
	}
	return 0, fmt.Errorf("file: device %d does not support durable volumes", d.ID())
}

// Format initialises a durable volume on a freshly created disk device.
// The VTOC root page is allocated — it must be the device's first
// allocation — and written empty.
func Format(pool *buffer.Pool, dev record.DeviceID) (*Volume, error) {
	d, err := pool.Registry().Get(dev)
	if err != nil {
		return nil, err
	}
	root, err := vtocRoot(d)
	if err != nil {
		return nil, err
	}
	pg, err := d.AllocPage()
	if err != nil {
		return nil, err
	}
	if pg != root {
		return nil, fmt.Errorf("file: format: device %d not fresh (first page %d, want %d)", dev, pg, root)
	}
	fr, err := pool.Fix(pid(dev, root))
	if err != nil {
		return nil, err
	}
	page{fr.Data()}.init()
	pool.Unfix(fr, true)
	v := NewVolume(pool, dev)
	v.durable = true
	v.vtocRoot = root
	return v, nil
}

// OpenVolume remounts a durable volume, loading the catalog from the
// persisted VTOC chain.
func OpenVolume(pool *buffer.Pool, dev record.DeviceID) (*Volume, error) {
	d, err := pool.Registry().Get(dev)
	if err != nil {
		return nil, err
	}
	root, err := vtocRoot(d)
	if err != nil {
		return nil, err
	}
	v := NewVolume(pool, dev)
	v.durable = true
	v.vtocRoot = root

	for pg := root; pg != 0; {
		fr, err := pool.Fix(pid(dev, pg))
		if err != nil {
			return nil, fmt.Errorf("file: open volume: %w", err)
		}
		p := page{fr.Data()}
		for slot := 0; slot < p.nslots(); slot++ {
			data, err := p.record(slot)
			if err == nil {
				err = v.loadEntry(data)
			}
			if err != nil {
				pool.Unfix(fr, false)
				return nil, err
			}
		}
		next := p.next()
		pool.Unfix(fr, false)
		pg = next
	}
	return v, nil
}

// loadEntry decodes one catalog entry into the in-memory VTOC.
func (v *Volume) loadEntry(data []byte) error {
	vals, err := vtocSchema.Decode(data)
	if err != nil {
		return fmt.Errorf("file: corrupt VTOC entry: %w", err)
	}
	name := string(vals[0].S)
	switch vals[1].I {
	case vtocKindFile:
		var schema *record.Schema
		if spec := string(vals[8].S); spec != "" {
			schema, err = record.ParseSpec(spec)
			if err != nil {
				return fmt.Errorf("file: VTOC entry %q: %w", name, err)
			}
		}
		v.files[name] = &meta{
			name:      name,
			firstPage: uint32(vals[2].I),
			lastPage:  uint32(vals[3].I),
			pages:     int(vals[4].I),
			records:   int(vals[5].I),
			schema:    schema,
		}
	case vtocKindIndex:
		v.indexes[name] = &indexMeta{
			root:   uint32(vals[6].I),
			height: int(vals[7].I),
			count:  int(vals[5].I),
		}
	case vtocKindStats:
		distinct, err := parseDistinctList(string(vals[8].S), int(vals[6].I))
		if err != nil {
			return fmt.Errorf("file: VTOC stats entry %q: %w", name, err)
		}
		if v.statsDistinct == nil {
			v.statsDistinct = make(map[string][]int64)
		}
		v.statsDistinct[name] = distinct
	default:
		return fmt.Errorf("file: VTOC entry %q has unknown kind %d", name, vals[1].I)
	}
	return nil
}

// entryBytes renders one file entry.
func fileEntry(m *meta) ([]byte, error) {
	spec := ""
	if m.schema != nil {
		spec = m.schema.Spec()
	}
	return vtocSchema.Encode([]record.Value{
		record.Str(m.name),
		record.Int(vtocKindFile),
		record.Int(int64(m.firstPage)),
		record.Int(int64(m.lastPage)),
		record.Int(int64(m.pages)),
		record.Int(int64(m.records)),
		record.Int(0),
		record.Int(0),
		record.Str(spec),
	})
}

// statsEntry renders one per-file statistics entry: the distinct
// estimates are joined into the (otherwise unused) schema string field,
// with the field count in aux1 as a decode cross-check.
func statsEntry(name string, distinct []int64) ([]byte, error) {
	parts := make([]string, len(distinct))
	for i, d := range distinct {
		parts[i] = strconv.FormatInt(d, 10)
	}
	return vtocSchema.Encode([]record.Value{
		record.Str(name),
		record.Int(vtocKindStats),
		record.Int(0),
		record.Int(0),
		record.Int(0),
		record.Int(0),
		record.Int(int64(len(distinct))),
		record.Int(0),
		record.Str(strings.Join(parts, ",")),
	})
}

// parseDistinctList decodes a statsEntry's payload.
func parseDistinctList(s string, want int) ([]int64, error) {
	if s == "" {
		if want != 0 {
			return nil, fmt.Errorf("empty list, want %d fields", want)
		}
		return []int64{}, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != want {
		return nil, fmt.Errorf("%d values, want %d", len(parts), want)
	}
	out := make([]int64, len(parts))
	for i, p := range parts {
		n, err := strconv.ParseInt(p, 10, 64)
		if err != nil {
			return nil, err
		}
		out[i] = n
	}
	return out, nil
}

func indexEntry(name string, im *indexMeta) ([]byte, error) {
	return vtocSchema.Encode([]record.Value{
		record.Str(name),
		record.Int(vtocKindIndex),
		record.Int(0),
		record.Int(0),
		record.Int(0),
		record.Int(int64(im.count)),
		record.Int(int64(im.root)),
		record.Int(int64(im.height)),
		record.Str(""),
	})
}

// Save persists the volume: the VTOC chain is rewritten in place, all
// dirty pages of the device are flushed, and the device's allocation
// bitmap is synced. Only durable (Format/OpenVolume) volumes can save.
func (v *Volume) Save() error {
	if !v.durable {
		return fmt.Errorf("file: volume on device %d is not durable", v.dev)
	}
	d, err := v.pool.Registry().Get(v.dev)
	if err != nil {
		return err
	}

	v.vtoc.Lock()
	var entries [][]byte
	for _, m := range v.files {
		e, err := fileEntry(m)
		if err != nil {
			v.vtoc.Unlock()
			return err
		}
		entries = append(entries, e)
	}
	for name, im := range v.indexes {
		e, err := indexEntry(name, im)
		if err != nil {
			v.vtoc.Unlock()
			return err
		}
		entries = append(entries, e)
	}
	for name, distinct := range v.statsDistinct {
		if _, live := v.files[name]; !live {
			continue
		}
		e, err := statsEntry(name, distinct)
		if err != nil {
			v.vtoc.Unlock()
			return err
		}
		entries = append(entries, e)
	}
	v.vtoc.Unlock()

	// Free the old continuation chain (beyond the root), then rewrite.
	fr, err := v.pool.Fix(pid(v.dev, v.vtocRoot))
	if err != nil {
		return err
	}
	next := page{fr.Data()}.next()
	page{fr.Data()}.init()
	for next != 0 {
		cfr, err := v.pool.Fix(pid(v.dev, next))
		if err != nil {
			v.pool.Unfix(fr, true)
			return err
		}
		nn := page{cfr.Data()}.next()
		cpg := next
		v.pool.Unfix(cfr, false)
		if err := v.pool.Discard(pid(v.dev, cpg)); err != nil {
			v.pool.Unfix(fr, true)
			return err
		}
		if err := d.FreePage(cpg); err != nil {
			v.pool.Unfix(fr, true)
			return err
		}
		next = nn
	}

	cur := fr
	for _, e := range entries {
		if len(e) > MaxRecordLen {
			v.pool.Unfix(cur, true)
			return fmt.Errorf("file: VTOC entry too large (%d bytes)", len(e))
		}
		p := page{cur.Data()}
		if p.freeSpace() < len(e) {
			nfr, npid, err := v.pool.FixNew(v.dev)
			if err != nil {
				v.pool.Unfix(cur, true)
				return err
			}
			page{nfr.Data()}.init()
			p.setNext(npid.Page)
			v.pool.Unfix(cur, true)
			cur = nfr
			p = page{cur.Data()}
		}
		p.insert(e)
	}
	v.pool.Unfix(cur, true)

	if err := v.pool.FlushAll(v.dev); err != nil {
		return err
	}
	type syncer interface{ Sync() error }
	if s, ok := d.(syncer); ok {
		return s.Sync()
	}
	return nil
}

// SaveIndex records (or updates) a named B+-tree in the catalog. Call
// Save afterwards to persist.
func (v *Volume) SaveIndex(name string, t *btree.Tree) {
	v.vtoc.Lock()
	defer v.vtoc.Unlock()
	v.indexes[name] = &indexMeta{root: t.RootPage(), height: t.Height(), count: t.Len()}
}

// OpenIndex reopens a catalogued B+-tree.
func (v *Volume) OpenIndex(name string) (*btree.Tree, error) {
	v.vtoc.Lock()
	im, ok := v.indexes[name]
	v.vtoc.Unlock()
	if !ok {
		return nil, fmt.Errorf("file: index %q not found on device %d", name, v.dev)
	}
	return btree.Open(v.pool, v.dev, im.root, im.height, im.count), nil
}

// Indexes lists catalogued index names.
func (v *Volume) Indexes() []string {
	v.vtoc.Lock()
	defer v.vtoc.Unlock()
	names := make([]string, 0, len(v.indexes))
	for n := range v.indexes {
		names = append(names, n)
	}
	return names
}

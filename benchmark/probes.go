package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/record"
	"repro/internal/storage/btree"
	"repro/internal/storage/buffer"
	"repro/internal/storage/device"
)

// probeStorage times the storage stack in process, through its Go API,
// while no server has the database open. These are the layers below
// anything a plan can isolate from outside.
func probeStorage(db string, ds *dataset, rng *rand.Rand, m metricSet) error {
	const iters = 5000
	st, err := openStorage(db, loadFrames)
	if err != nil {
		return err
	}
	defer st.close()
	emp, err := st.vol.Open("emp")
	if err != nil {
		return err
	}
	disk, err := st.reg.Get(st.dev)
	if err != nil {
		return err
	}
	// Allocation is first-fit on a volume nothing was deleted from, so the
	// pages from the first file page on, up to half the allocated count,
	// all hold data.
	first, span := emp.FirstPage().Page, disk.Allocated()/2
	pageOf := func(i int) record.PageID {
		return record.PageID{Dev: st.dev, Page: first + uint32(i%span)}
	}
	perOp := func(d time.Duration, unit time.Duration) float64 {
		return float64(d) / float64(unit) / iters
	}

	buf := make([]byte, device.PageSize)
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := disk.ReadPage(pageOf(rng.Int()).Page, buf); err != nil {
			return err
		}
	}
	m.set("device.read_page_us", perOp(time.Since(start), time.Microsecond))

	fixLoop := func(pool *buffer.Pool, page func(i int) record.PageID) (time.Duration, error) {
		start := time.Now()
		for i := 0; i < iters; i++ {
			fr, err := pool.Fix(page(i))
			if err != nil {
				return 0, err
			}
			pool.Unfix(fr, false)
		}
		return time.Since(start), nil
	}
	// Hit: the same resident page over and over.
	d, err := fixLoop(st.pool, func(int) record.PageID { return pageOf(0) })
	if err != nil {
		return err
	}
	m.set("buffer.fix_hit_ns", perOp(d, time.Nanosecond))
	// Miss: a 64-frame pool cycling over many more pages, so every fix
	// evicts a frame and reads the device.
	smallPool, err := openStorage(db, 64)
	if err != nil {
		return err
	}
	d, err = fixLoop(smallPool.pool, pageOf)
	cerr := smallPool.close()
	if err != nil {
		return err
	}
	if cerr != nil {
		return cerr
	}
	m.set("buffer.fix_miss_us", perOp(d, time.Microsecond))

	tree, err := st.vol.OpenIndex("emp_id")
	if err != nil {
		return err
	}
	keys := make([][]byte, iters)
	for i := range keys {
		keys[i] = btree.EncodeKey(record.Int(int64(rng.Intn(len(ds.emp)))))
	}
	before := st.pool.Stats()
	start = time.Now()
	for _, k := range keys {
		if rids, err := tree.Lookup(k); err != nil || len(rids) != 1 {
			return fmt.Errorf("btree lookup: %d rids, %v", len(rids), err)
		}
	}
	m.set("btree.lookup_us", perOp(time.Since(start), time.Microsecond))
	m.set("btree.pages_per_lookup", float64(st.pool.Stats().Sub(before).Fixes)/iters)

	r := ds.emp[rng.Intn(len(ds.emp))]
	data := empSchema.MustEncode(record.Int(r.id), record.Int(r.dept), record.Float(r.salary), record.Str(r.name))
	start = time.Now()
	for i := 0; i < iters; i++ {
		if _, err := empSchema.Decode(data); err != nil {
			return err
		}
	}
	m.set("record.decode_ns", perOp(time.Since(start), time.Nanosecond))
	return nil
}

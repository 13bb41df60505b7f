package main

import (
	"fmt"
	"math/rand"

	"repro/internal/record"
	"repro/internal/storage/btree"
	"repro/internal/storage/buffer"
	"repro/internal/storage/device"
	"repro/internal/storage/file"
)

const (
	numDepts = 64
	// loadFrames sizes the pool used while loading and probing; the whole
	// database fits, so loading never evicts.
	loadFrames = 8192
)

type empRow struct {
	id, dept int64
	salary   float64
	name     string
}

// dataset is the generated content of the database, kept in memory for the
// reference evaluator.
type dataset struct {
	emp   []empRow
	dname []string // by dno
}

var (
	empSchema = record.MustSchema(
		record.Field{Name: "id", Type: record.TInt},
		record.Field{Name: "dept", Type: record.TInt},
		record.Field{Name: "salary", Type: record.TFloat},
		record.Field{Name: "name", Type: record.TString},
	)
	deptSchema = record.MustSchema(
		record.Field{Name: "dno", Type: record.TInt},
		record.Field{Name: "dname", Type: record.TString},
	)
	voidSchema = record.MustSchema(record.Field{Name: "k", Type: record.TInt})
)

// genData draws the rows from seed alone. Salaries are whole cents in
// [1000, 9000), so a threshold picks a predictable share of the rows.
func genData(seed int64, rows int) *dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := &dataset{emp: make([]empRow, rows), dname: make([]string, numDepts)}
	for i := range ds.emp {
		ds.emp[i] = empRow{
			id:     int64(i),
			dept:   int64(rng.Intn(numDepts)),
			salary: float64(100000+rng.Intn(800000)) / 100,
			name:   fmt.Sprintf("emp-%c%c-%d", 'a'+rng.Intn(26), 'a'+rng.Intn(26), i),
		}
	}
	for d := range ds.dname {
		ds.dname[d] = fmt.Sprintf("dept-%02d", d)
	}
	return ds
}

// storage is an opened database: the device registry, one pool and the
// volume, as volcano-serve mounts them.
type storage struct {
	reg  *device.Registry
	pool *buffer.Pool
	vol  *file.Volume
	dev  record.DeviceID
}

func (s *storage) close() error { return s.reg.CloseAll() }

func openStorage(path string, frames int) (*storage, error) {
	reg := device.NewRegistry()
	id := reg.NextID()
	d, err := device.OpenDisk(id, path)
	if err != nil {
		return nil, err
	}
	if err := reg.Mount(d); err != nil {
		return nil, err
	}
	pool := buffer.NewPool(reg, frames, buffer.TwoLevel)
	vol, err := file.OpenVolume(pool, id)
	if err != nil {
		_ = reg.CloseAll()
		return nil, err
	}
	return &storage{reg: reg, pool: pool, vol: vol, dev: id}, nil
}

// buildDatabase writes the durable database file the servers open: emp,
// its 4-way and 2-way partitionings, dept, four empty void files and the
// emp_id index, all analyzed as `volcano -load` would.
func buildDatabase(path string, ds *dataset) error {
	reg := device.NewRegistry()
	id := reg.NextID()
	// Three copies of emp at about 100 rows a page, the index, and slack.
	capacity := uint32(len(ds.emp)/20 + 1024)
	d, err := device.NewDisk(id, path, capacity)
	if err != nil {
		return err
	}
	if err := reg.Mount(d); err != nil {
		return err
	}
	defer reg.CloseAll()
	pool := buffer.NewPool(reg, loadFrames, buffer.TwoLevel)
	vol, err := file.Format(pool, id)
	if err != nil {
		return err
	}

	emp, err := vol.Create("emp", empSchema)
	if err != nil {
		return err
	}
	var parts []*file.File // emp.0..3 then emp2.0..1
	for _, p := range []struct {
		name string
		k    int
	}{{"emp", 4}, {"emp2", 2}} {
		for i := 0; i < p.k; i++ {
			f, err := vol.Create(fmt.Sprintf("%s.%d", p.name, i), empSchema)
			if err != nil {
				return err
			}
			parts = append(parts, f)
		}
	}
	tree, err := btree.Create(pool, id)
	if err != nil {
		return err
	}
	vals := make([]record.Value, 4)
	var buf []byte
	for i, r := range ds.emp {
		vals[0], vals[1], vals[2], vals[3] = record.Int(r.id), record.Int(r.dept), record.Float(r.salary), record.Str(r.name)
		if buf, err = empSchema.AppendEncode(buf[:0], vals); err != nil {
			return err
		}
		rid, err := emp.Insert(buf)
		if err != nil {
			return err
		}
		if err := tree.Insert(btree.EncodeKey(vals[0]), rid); err != nil {
			return err
		}
		if _, err := parts[i%4].Insert(buf); err != nil {
			return err
		}
		if _, err := parts[4+i%2].Insert(buf); err != nil {
			return err
		}
	}
	dept, err := vol.Create("dept", deptSchema)
	if err != nil {
		return err
	}
	for dno, name := range ds.dname {
		if _, err := dept.Insert(deptSchema.MustEncode(record.Int(int64(dno)), record.Str(name))); err != nil {
			return err
		}
	}
	// void.0..3 stay empty: the ladder's requests and fragments with no
	// work in them scan these.
	for i := 0; i < 4; i++ {
		if _, err := vol.Create(fmt.Sprintf("void.%d", i), voidSchema); err != nil {
			return err
		}
	}
	for _, name := range vol.List() {
		if _, err := vol.Analyze(name); err != nil {
			return err
		}
	}
	vol.SaveIndex("emp_id", tree)
	return vol.Save()
}

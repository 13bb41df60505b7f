package plan

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/record"
	"repro/internal/storage/btree"
	"repro/internal/storage/buffer"
	"repro/internal/storage/device"
	"repro/internal/storage/file"
)

// TestSystemEndToEnd is the "whole system" test: a durable database with
// several tables and an index is created, saved, remounted cold, and then
// queried through the plan language with parallel scans, exchanges,
// joins, aggregation, division and index scans — with instrumentation on,
// asserting both results and pin balance at every step.
func TestSystemEndToEnd(t *testing.T) {
	path := filepath.Join(t.TempDir(), "warehouse.vdb")

	ordersSchema := record.MustSchema(
		record.Field{Name: "oid", Type: record.TInt},
		record.Field{Name: "cust", Type: record.TInt},
		record.Field{Name: "item", Type: record.TInt},
		record.Field{Name: "qty", Type: record.TInt},
	)
	custSchema := record.MustSchema(
		record.Field{Name: "cid", Type: record.TInt},
		record.Field{Name: "region", Type: record.TInt},
	)
	const (
		nOrders = 4000
		nCust   = 200
		nItems  = 10
		parts   = 4
	)

	// ---- Phase 1: build and persist the database. ---------------------
	func() {
		reg := device.NewRegistry()
		id := reg.NextID()
		d, err := device.NewDisk(id, path, 1<<15)
		if err != nil {
			t.Fatal(err)
		}
		reg.Mount(d)
		defer reg.CloseAll()
		pool := buffer.NewPool(reg, 2048, buffer.TwoLevel)
		vol, err := file.Format(pool, id)
		if err != nil {
			t.Fatal(err)
		}
		// Orders, also partitioned for pscan.
		orders, err := vol.Create("orders", ordersSchema)
		if err != nil {
			t.Fatal(err)
		}
		pfiles := make([]*file.File, parts)
		for p := range pfiles {
			pf, err := vol.Create(fmt.Sprintf("orders.%d", p), ordersSchema)
			if err != nil {
				t.Fatal(err)
			}
			pfiles[p] = pf
		}
		idx, err := btree.Create(pool, id)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nOrders; i++ {
			data := ordersSchema.MustEncode(
				record.Int(int64(i)),
				record.Int(int64(i*13%nCust)),
				record.Int(int64(i%nItems)),
				record.Int(int64(1+i%5)),
			)
			rid, err := orders.Insert(data)
			if err != nil {
				t.Fatal(err)
			}
			if err := idx.Insert(btree.EncodeKey(record.Int(int64(i))), rid); err != nil {
				t.Fatal(err)
			}
			if _, err := pfiles[i%parts].Insert(data); err != nil {
				t.Fatal(err)
			}
		}
		cust, err := vol.Create("customers", custSchema)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nCust; i++ {
			cust.Insert(custSchema.MustEncode(record.Int(int64(i)), record.Int(int64(i%7))))
		}
		vol.SaveIndex("orders_oid", idx)
		if err := vol.Save(); err != nil {
			t.Fatal(err)
		}
	}()

	// ---- Phase 2: cold remount, query through the plan language. ------
	reg := device.NewRegistry()
	id := reg.NextID()
	d, err := device.OpenDisk(id, path)
	if err != nil {
		t.Fatal(err)
	}
	reg.Mount(d)
	tempID := reg.NextID()
	reg.Mount(device.NewMem(tempID))
	defer reg.CloseAll()
	pool := buffer.NewPool(reg, 2048, buffer.TwoLevel)
	vol, err := file.OpenVolume(pool, id)
	if err != nil {
		t.Fatal(err)
	}
	env := core.NewEnv(pool, file.NewVolume(pool, tempID))
	cat := VolumeCatalog{vol}

	run := func(script string) [][]record.Value {
		t.Helper()
		n, err := Parse(script)
		if err != nil {
			t.Fatalf("parse: %v\n%s", err, script)
		}
		it, an, err := BuildWith(env, cat, n, BuildOptions{Analyze: true})
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		rows, err := core.Collect(it, 0)
		if err != nil {
			t.Fatalf("run: %v\n%s", err, an.String())
		}
		if got := pool.Stats().CurrentlyFixedHint; got != 0 {
			t.Fatalf("pin leak (%d) after:\n%s", got, script)
		}
		return rows
	}

	// Q1: parallel scan + exchange + join + aggregation.
	q1 := run(`
with cust = scan customers
pscan orders 4
| exchange producers=4 flow=on slack=3
| join hash cust on cust = cid
| agg group region compute count, sum(qty)
| sort region
`)
	if len(q1) != 7 {
		t.Fatalf("q1 groups = %d, want 7", len(q1))
	}
	totalQ1 := int64(0)
	for _, r := range q1 {
		totalQ1 += r[1].I
	}
	if totalQ1 != nOrders {
		t.Fatalf("q1 counts sum to %d, want %d", totalQ1, nOrders)
	}

	// Q2: index range scan on the persisted index.
	q2 := run("iscan orders orders_oid 100 199 | agg group item compute count | sort item")
	if len(q2) != nItems {
		t.Fatalf("q2 groups = %d, want %d", len(q2), nItems)
	}
	totalQ2 := int64(0)
	for _, r := range q2 {
		totalQ2 += r[1].I
	}
	if totalQ2 != 100 {
		t.Fatalf("q2 counts sum to %d, want 100", totalQ2)
	}

	// Q3: division — customers who ordered EVERY item. Customer c gets
	// orders i with i ≡ c·13⁻¹ (mod 200)... simpler: just cross-check the
	// division result against an aggregate-based computation.
	q3 := run(`
with items = scan orders | project item | distinct hash
scan orders | divide hash items quot cust div item on item | sort cust
`)
	q3check := run(`
scan orders
| project cust, item
| distinct hash
| agg group cust compute count
| filter count = 10
| sort cust
`)
	if len(q3) != len(q3check) {
		t.Fatalf("division found %d customers, aggregate check %d", len(q3), len(q3check))
	}
	for i := range q3 {
		if q3[i][0].I != q3check[i][0].I {
			t.Fatalf("division row %d: %v vs %v", i, q3[i][0], q3check[i][0])
		}
	}

	// Q4: merge network over sorted partitions.
	q4 := run("pscan orders 4 | sort oid | exchange producers=4 merge=oid | project oid")
	if len(q4) != nOrders {
		t.Fatalf("q4 rows = %d", len(q4))
	}
	for i, r := range q4 {
		if r[0].I != int64(i) {
			t.Fatalf("q4 order broken at %d", i)
		}
	}
}

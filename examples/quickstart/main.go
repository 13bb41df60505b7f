// Quickstart: build a tiny database, compose a query from Volcano
// iterators (scan → filter → project → sort), run it serially, and then
// run the same operators in parallel by splicing in an exchange operator —
// without changing a single operator, which is the point of the paper.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/record"
	"repro/internal/storage/buffer"
	"repro/internal/storage/device"
	"repro/internal/storage/file"
)

func main() {
	// --- Set up devices, buffer pool, volumes -------------------------
	reg := device.NewRegistry()
	baseID := reg.NextID()
	must(reg.Mount(device.NewMem(baseID))) // base tables
	tempID := reg.NextID()
	must(reg.Mount(device.NewMem(tempID))) // intermediate results
	defer reg.CloseAll()

	pool := buffer.NewPool(reg, 1024, buffer.TwoLevel)
	base := file.NewVolume(pool, baseID)
	env := core.NewEnv(pool, file.NewVolume(pool, tempID))

	// --- Create and fill a table --------------------------------------
	empSchema := record.MustSchema(
		record.Field{Name: "id", Type: record.TInt},
		record.Field{Name: "dept", Type: record.TInt},
		record.Field{Name: "salary", Type: record.TFloat},
		record.Field{Name: "name", Type: record.TString},
	)
	emp, err := base.Create("emp", empSchema)
	must(err)
	for i := 0; i < 1000; i++ {
		_, err := emp.Insert(empSchema.MustEncode(
			record.Int(int64(i)),
			record.Int(int64(i%8)),
			record.Float(1000+float64(i%500)*7.5),
			record.Str(fmt.Sprintf("emp-%d", i)),
		))
		must(err)
	}

	// --- Serial query: scan | filter | project | sort ------------------
	scan, err := core.NewFileScan(emp, nil, false)
	must(err)
	flt, err := core.NewFilterExpr(env, scan, "dept = 3 AND salary > 3000.0", expr.Compiled)
	must(err)
	proj, err := core.NewProjectExprs(env, flt,
		[]string{"name", "salary * 1.1"}, []string{"name", "raised"}, expr.Compiled)
	must(err)
	sorted := core.NewSort(env, proj, []record.SortSpec{{Field: 1, Desc: true}})

	rows, err := core.Collect(sorted, 0)
	must(err)
	fmt.Printf("serial query: %d qualifying employees; top earner: %s at %.2f\n",
		len(rows), rows[0][0], rows[0][1].F)

	// --- The same query, in parallel ----------------------------------
	// Insert one exchange operator below the sort. Three producer
	// goroutines each run their own scan+filter+project subtree over a
	// partition predicate; the operators themselves are untouched.
	x, err := core.NewExchange(core.ExchangeConfig{
		Schema:    proj.Schema(),
		Producers: 3,
		Consumers: 1,
		NewProducer: func(g int) (core.Iterator, error) {
			s, err := core.NewFileScan(emp, nil, false)
			if err != nil {
				return nil, err
			}
			f, err := core.NewFilterExpr(env, s,
				fmt.Sprintf("id %% 3 = %d AND dept = 3 AND salary > 3000.0", g), expr.Compiled)
			if err != nil {
				return nil, err
			}
			return core.NewProjectExprs(env, f,
				[]string{"name", "salary * 1.1"}, []string{"name", "raised"}, expr.Compiled)
		},
	})
	must(err)
	parallelSorted := core.NewSort(env, x.Consumer(0), []record.SortSpec{{Field: 1, Desc: true}})
	prows, err := core.Collect(parallelSorted, 0)
	must(err)
	fmt.Printf("parallel query (3 producers through exchange): %d rows, same top earner: %s\n",
		len(prows), prows[0][0])
	if len(prows) != len(rows) {
		log.Fatalf("parallel plan lost rows: %d vs %d", len(prows), len(rows))
	}
	st := x.Stats()
	fmt.Printf("exchange moved %d records in %d packets\n", st.Records, st.Packets)

	if n := pool.Stats().CurrentlyFixedHint; n != 0 {
		log.Fatalf("buffer pin leak: %d", n)
	}
	fmt.Println("all buffer pins balanced — ownership protocol held")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

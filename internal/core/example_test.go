package core_test

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

// world builds a minimal environment for the examples.
func world() (*core.Env, *file.Volume) {
	reg := device.NewRegistry()
	baseID := reg.NextID()
	if err := reg.Mount(device.NewMem(baseID)); err != nil {
		log.Fatal(err)
	}
	tempID := reg.NextID()
	if err := reg.Mount(device.NewMem(tempID)); err != nil {
		log.Fatal(err)
	}
	pool := buffer.NewPool(reg, 256, buffer.TwoLevel)
	return core.NewEnv(pool, file.NewVolume(pool, tempID)), file.NewVolume(pool, baseID)
}

// Example composes scan → filter → sort and collects the result: the
// basic open-next-close pipeline.
func Example() {
	env, vol := world()
	s := record.MustSchema(
		record.Field{Name: "id", Type: record.TInt},
		record.Field{Name: "name", Type: record.TString},
	)
	f, _ := vol.Create("t", s)
	for _, row := range []struct {
		id   int64
		name string
	}{{3, "gamma"}, {1, "volcano"}, {2, "wisconsin"}} {
		f.Insert(s.MustEncode(record.Int(row.id), record.Str(row.name)))
	}

	scan, _ := core.NewFileScan(f)
	flt, _ := core.NewFilterExpr(env, scan, "id <= 2", expr.Compiled)
	sorted := core.NewSort(env, flt, []record.SortSpec{{Field: 0}})
	rows, _ := core.Collect(sorted, 0)
	for _, r := range rows {
		fmt.Println(r[0].I, string(r[1].S))
	}
	// Output:
	// 1 volcano
	// 2 wisconsin
}

// ExampleExchange splices one exchange operator into a plan: two
// producers scan disjoint halves in their own goroutines, the consumer
// counts what arrives. No operator knows parallelism is happening.
func ExampleExchange() {
	env, vol := world()
	s := record.MustSchema(record.Field{Name: "v", Type: record.TInt})
	f, _ := vol.Create("t", s)
	for i := 0; i < 100; i++ {
		f.Insert(s.MustEncode(record.Int(int64(i))))
	}

	x, _ := core.NewExchange(core.ExchangeConfig{
		Schema:    s,
		Producers: 2,
		Consumers: 1,
		NewProducer: func(g int) (core.Iterator, error) {
			scan, err := core.NewFileScan(f)
			if err != nil {
				return nil, err
			}
			preds := []string{"v % 2 = 0", "v % 2 = 1"}
			return core.NewFilterExpr(env, scan, preds[g], expr.Compiled)
		},
	})
	n, _ := core.Drain(x.Consumer(0), 0)
	fmt.Println(n, "records through the exchange")
	// Output: 100 records through the exchange
}

// ExampleHashMatch runs a natural join with the hash-based one-to-one
// match algorithm.
func ExampleHashMatch() {
	env, vol := world()
	s := record.MustSchema(
		record.Field{Name: "k", Type: record.TInt},
		record.Field{Name: "v", Type: record.TInt},
	)
	l, _ := vol.Create("l", s)
	r, _ := vol.Create("r", s)
	l.Insert(s.MustEncode(record.Int(1), record.Int(10)))
	l.Insert(s.MustEncode(record.Int(2), record.Int(20)))
	r.Insert(s.MustEncode(record.Int(2), record.Int(200)))

	ls, _ := core.NewFileScan(l)
	rs, _ := core.NewFileScan(r)
	join, _ := core.NewHashMatch(env, core.MatchJoin, ls, rs, record.Key{0}, record.Key{0})
	rows, _ := core.Collect(join, 0)
	for _, row := range rows {
		fmt.Println(row[0].I, row[1].I, row[3].I)
	}
	// Output: 2 20 200
}

// ExampleHashDivision answers "which students took all required courses"
// with Volcano's hash-division operator.
func ExampleHashDivision() {
	env, vol := world()
	enrolled := record.MustSchema(
		record.Field{Name: "student", Type: record.TInt},
		record.Field{Name: "course", Type: record.TInt},
	)
	required := record.MustSchema(record.Field{Name: "course", Type: record.TInt})
	e, _ := vol.Create("enrolled", enrolled)
	for _, p := range [][2]int64{{1, 7}, {1, 8}, {2, 7}} {
		e.Insert(enrolled.MustEncode(record.Int(p[0]), record.Int(p[1])))
	}
	q, _ := vol.Create("required", required)
	q.Insert(required.MustEncode(record.Int(7)))
	q.Insert(required.MustEncode(record.Int(8)))

	es, _ := core.NewFileScan(e)
	qs, _ := core.NewFileScan(q)
	div, _ := core.NewHashDivision(env, es, qs, record.Key{0}, record.Key{1}, record.Key{0})
	rows, _ := core.Collect(div, 0)
	for _, row := range rows {
		fmt.Println("student", row[0].I)
	}
	// Output: student 1
}

// Parallel hash join with the exchange operator: both inputs are
// repartitioned on the join key across a group of workers, each worker
// runs an ordinary (single-process) hash join, and a final exchange
// gathers the results. The join algorithm itself knows nothing about
// parallelism — exactly the paper's promise that operators "coded for
// single-process execution ... run in a highly parallel environment
// without modifications".
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/record"
	"repro/internal/storage/buffer"
	"repro/internal/storage/device"
	"repro/internal/storage/file"
)

const (
	nOrders    = 50000
	nCustomers = 5000
	workers    = 4
)

func main() {
	reg := device.NewRegistry()
	baseID := reg.NextID()
	must(reg.Mount(device.NewMem(baseID)))
	tempID := reg.NextID()
	must(reg.Mount(device.NewMem(tempID)))
	defer reg.CloseAll()
	pool := buffer.NewPool(reg, 16384, buffer.TwoLevel)
	base := file.NewVolume(pool, baseID)
	env := core.NewEnv(pool, file.NewVolume(pool, tempID))

	orders := record.MustSchema(
		record.Field{Name: "oid", Type: record.TInt},
		record.Field{Name: "cust", Type: record.TInt},
		record.Field{Name: "amount", Type: record.TFloat},
	)
	customers := record.MustSchema(
		record.Field{Name: "cid", Type: record.TInt},
		record.Field{Name: "region", Type: record.TInt},
	)
	of, err := base.Create("orders", orders)
	must(err)
	for i := 0; i < nOrders; i++ {
		_, err := of.Insert(orders.MustEncode(
			record.Int(int64(i)), record.Int(int64(i*7919%nCustomers)), record.Float(float64(i%997))))
		must(err)
	}
	cf, err := base.Create("customers", customers)
	must(err)
	for i := 0; i < nCustomers; i++ {
		_, err := cf.Insert(customers.MustEncode(record.Int(int64(i)), record.Int(int64(i%13))))
		must(err)
	}

	// --- Serial hash join ----------------------------------------------
	serial := func() (int, time.Duration) {
		os, err := core.NewFileScan(of)
		must(err)
		cs, err := core.NewFileScan(cf)
		must(err)
		j, err := core.NewHashMatch(env, core.MatchJoin, os, cs, record.Key{1}, record.Key{0})
		must(err)
		start := time.Now()
		n, err := core.Drain(j, 0)
		must(err)
		return n, time.Since(start)
	}
	sn, st := serial()
	fmt.Printf("serial hash join:   %8d rows in %v\n", sn, st.Round(time.Millisecond))

	// --- Parallel: repartition both inputs on the join key --------------
	parallel := func() (int, time.Duration) {
		xOrders, err := core.NewExchange(core.ExchangeConfig{
			Schema: orders, Producers: 1, Consumers: workers,
			FlowControl: true, Slack: 4,
			NewProducer: func(int) (core.Iterator, error) { return core.NewFileScan(of) },
			NewPartition: func(int) expr.Partitioner {
				return expr.HashPartition(orders, record.Key{1}, workers)
			},
		})
		must(err)
		xCust, err := core.NewExchange(core.ExchangeConfig{
			Schema: customers, Producers: 1, Consumers: workers,
			FlowControl: true, Slack: 4,
			NewProducer: func(int) (core.Iterator, error) { return core.NewFileScan(cf) },
			NewPartition: func(int) expr.Partitioner {
				return expr.HashPartition(customers, record.Key{0}, workers)
			},
		})
		must(err)
		out := orders.Concat(customers)
		gather, err := core.NewExchange(core.ExchangeConfig{
			Schema: out, Producers: workers, Consumers: 1,
			NewProducer: func(g int) (core.Iterator, error) {
				// Each worker: a perfectly ordinary hash join over its
				// partitions of both inputs.
				return core.NewHashMatch(env, core.MatchJoin,
					xOrders.Consumer(g), xCust.Consumer(g), record.Key{1}, record.Key{0})
			},
		})
		must(err)
		start := time.Now()
		n, err := core.Drain(gather.Consumer(0), 0)
		must(err)
		return n, time.Since(start)
	}
	pn, pt := parallel()
	fmt.Printf("parallel hash join: %8d rows in %v (%d workers, hash repartitioning)\n",
		pn, pt.Round(time.Millisecond), workers)

	if sn != pn {
		log.Fatalf("row count mismatch: serial %d, parallel %d", sn, pn)
	}
	if n := pool.Stats().CurrentlyFixedHint; n != 0 {
		log.Fatalf("buffer pin leak: %d", n)
	}
	fmt.Println("row counts match; all pins balanced")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

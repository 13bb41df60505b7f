// Command volcano-serve is the Volcano query service: it opens a durable
// database file (created with volcano -db), binds an HTTP address, and
// executes plan-language scripts POSTed to /query, streaming results as
// NDJSON with a trailing status object.
//
//	volcano-gen -kind emp -rows 10000 -out emp.csv
//	volcano -db db.vol -schema emp=id:int,dept:int,salary:float,name:string \
//	        -load emp=emp.csv -q 'scan emp | filter id < 0'
//	volcano-serve -db db.vol -addr :8080 &
//	curl -d 'scan emp | filter dept = 2 | sort salary desc' localhost:8080/query
//
// The service bounds its own parallelism: -max-concurrent queries execute
// at once, their exchange operators may fork at most -max-producers
// goroutines in total, and at most -max-queue queries wait for admission
// (the excess is rejected with 429). GET /healthz reports liveness, GET
// /metrics serves the volcano_server_* families alongside the storage and
// operator families, and SIGINT/SIGTERM drains gracefully: admission
// stops, in-flight queries finish, then the volume closes.
//
// Every query has an identity: the X-Volcano-Query-Id request header (or
// a generated ID) is echoed in the response header and the trailing
// status object. GET /debug/queries lists the active queries with live
// per-operator progress, GET /debug/queries/{id} drills into one with a
// mid-flight EXPLAIN ANALYZE rendering, and queries slower than
// -slow-query (plus every errored or canceled one) land in a structured
// slow-query log: an in-memory ring on GET /debug/slowlog, plus JSON
// lines appended to -query-log when set.
//
// Every node serves POST /fragment too. -dist (or -workers) makes a node
// a coordinator that ships producer fragments to a fleet, and
// -coordinator ADDR makes it join one as a worker:
//
//	volcano-serve -db db.vol -addr :8080 -dist &
//	volcano-serve -db db.vol -addr 127.0.0.1:8081 -coordinator 127.0.0.1:8080 &
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/node"
)

func main() {
	var o node.Options
	flag.StringVar(&o.DB, "db", "", "durable database file to serve (required; create with volcano -db)")
	flag.StringVar(&o.Addr, "addr", "127.0.0.1:8080", "HTTP listen address")
	flag.StringVar(&o.MetricsAddr, "metrics", "", "separate listen address for the operations surface: /metrics, /buildinfo, pprof and the /debug views without /query (empty = main address only)")
	flag.IntVar(&o.Frames, "frames", 4096, "buffer pool frames shared by all queries")
	flag.IntVar(&o.Server.MaxConcurrent, "max-concurrent", 4, "queries executing at once")
	flag.IntVar(&o.Server.MaxProducers, "max-producers", 64, "total exchange producer goroutines across all queries")
	flag.IntVar(&o.Server.MaxQueue, "max-queue", 16, "queries waiting for admission before 429s")
	flag.DurationVar(&o.Server.QueueWait, "queue-wait", 10*time.Second, "longest a query waits for admission before a 503")
	flag.DurationVar(&o.Server.MaxQueryTime, "max-query-time", 0, "per-query execution deadline (0 = unbounded)")
	flag.IntVar(&o.Server.PlanCacheSize, "plan-cache", 128, "compiled-plan LRU capacity (negative disables)")
	flag.IntVar(&o.Server.BatchSize, "batch", core.DefaultBatchSize, fmt.Sprintf("batch size for query execution, 1..%d (1 = record-at-a-time), overridable per request with X-Volcano-Batch", core.MaxBatchSize))
	cost := flag.Bool("cost", true, "cost-based planning: fill unset exchange parallelism, packet sizes and match strategy from table statistics, with cardinality feedback on repeats")
	flag.DurationVar(&o.Server.SlowQuery, "slow-query", time.Second, "slow-query log threshold; errored/canceled queries are always logged (0 = only those, negative = no log)")
	flag.StringVar(&o.QueryLog, "query-log", "", "append slow-query entries to this file as JSON lines (empty = in-memory ring only)")
	flag.StringVar(&o.Workers, "workers", "", "comma-separated worker node addresses to register for distributed execution (enables the coordinator)")
	flag.BoolVar(&o.Dist, "dist", false, "enable the distributed-execution coordinator even with no static workers (they join via POST /dist/register)")
	flag.StringVar(&o.Coordinator, "coordinator", "", "coordinating node to register this node with as a worker; -addr must then name a host it can dial (empty = join no fleet)")
	flag.DurationVar(&o.DrainTimeout, "drain-timeout", 30*time.Second, "longest to wait for in-flight queries on shutdown")
	flag.DurationVar(&o.ReadHeaderTimeout, "read-header-timeout", 5*time.Second, "longest a client may take to send request headers")
	flag.DurationVar(&o.ReadTimeout, "read-timeout", 30*time.Second, "longest a client may take to send a whole request")
	flag.DurationVar(&o.IdleTimeout, "idle-timeout", 2*time.Minute, "longest an idle keep-alive connection is held open")
	flag.DurationVar(&o.Server.WriteStallTimeout, "write-stall-timeout", 2*time.Minute, "longest one result flush may block on a non-reading client")
	flag.Parse()
	o.Server.DisableCosting = !*cost
	if err := core.CheckBatchSize(o.Server.BatchSize); err != nil {
		fmt.Fprintln(os.Stderr, "volcano-serve: -batch:", err)
		os.Exit(2)
	}

	if err := node.Run(o); err != nil {
		fmt.Fprintln(os.Stderr, "volcano-serve:", err)
		os.Exit(1)
	}
}

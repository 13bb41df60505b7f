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
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/server"
	"repro/internal/storage/btree"
	"repro/internal/storage/buffer"
	"repro/internal/storage/device"
	"repro/internal/storage/file"
)

// options carries everything a volcano-serve invocation needs; flags in
// main fill one in, tests construct them directly.
type options struct {
	db   string
	addr string
	// metricsAddr, when non-empty, binds a second listener serving only
	// the operations surface: /metrics, /buildinfo, /debug/pprof/,
	// /debug/queries and /debug/slowlog — no /query. It lets a deployment
	// keep the query port client-facing and the monitoring port internal.
	metricsAddr   string
	frames        int
	maxConcurrent int
	maxProducers  int
	maxQueue      int
	queueWait     time.Duration
	maxQueryTime  time.Duration
	planCache     int
	drainTimeout  time.Duration
	// batch is the batch size every query executes under (0 picks
	// core.DefaultBatchSize); requests override it per query with
	// X-Volcano-Batch.
	batch int
	// noCost turns the cost-based planning pass off: queries run their
	// plan text verbatim, with no planner-chosen knobs and no
	// cardinality feedback.
	noCost bool
	// slowQuery is the slow-query log threshold: completed queries at or
	// over it (and every errored/canceled query) get a structured log
	// entry. 0 logs only errors/cancels; negative disables the log.
	slowQuery time.Duration
	// queryLog, when non-empty, appends slow-query entries to this file
	// as slog JSON lines (the in-memory ring on /debug/slowlog is always
	// available regardless).
	queryLog string
	// workers is a comma-separated list of volcano-worker dispatch
	// addresses to register at startup; non-empty (or distEnable)
	// switches distributed execution on.
	workers string
	// distEnable turns the coordinator on with an empty fleet, so
	// workers can join dynamically via POST /dist/register.
	distEnable bool
	// distDataAddr is the coordinator's data-plane listen address
	// (empty = 127.0.0.1:0). Workers dial it to deliver fragment streams.
	distDataAddr string

	// Connection hygiene: zero values get production defaults in run()
	// so the test seam is hardened the same way the flags are.
	readHeaderTimeout time.Duration // slow-header (slowloris) bound
	readTimeout       time.Duration // whole-request read bound (plan bodies are small)
	idleTimeout       time.Duration // keep-alive idle bound
	writeStall        time.Duration // per-flush write-stall bound (streams stay unbounded)

	// readyHook, when set, is called with the bound listener address once
	// the service accepts connections. Test seam.
	readyHook func(addr string)
	// metricsReadyHook, when set, is called with the bound -metrics
	// listener address. Test seam.
	metricsReadyHook func(addr string)
	// stop, when non-nil, triggers the same graceful drain as SIGTERM
	// when it becomes readable. Test seam.
	stop <-chan struct{}
}

func main() {
	var o options
	flag.StringVar(&o.db, "db", "", "durable database file to serve (required; create with volcano -db)")
	flag.StringVar(&o.addr, "addr", "127.0.0.1:8080", "HTTP listen address")
	flag.StringVar(&o.metricsAddr, "metrics", "", "separate listen address for the operations surface: /metrics, /buildinfo, pprof and the /debug views without /query (empty = main address only)")
	flag.IntVar(&o.frames, "frames", 4096, "buffer pool frames shared by all queries")
	flag.IntVar(&o.maxConcurrent, "max-concurrent", 4, "queries executing at once")
	flag.IntVar(&o.maxProducers, "max-producers", 64, "total exchange producer goroutines across all queries")
	flag.IntVar(&o.maxQueue, "max-queue", 16, "queries waiting for admission before 429s")
	flag.DurationVar(&o.queueWait, "queue-wait", 10*time.Second, "longest a query waits for admission before a 503")
	flag.DurationVar(&o.maxQueryTime, "max-query-time", 0, "per-query execution deadline (0 = unbounded)")
	flag.IntVar(&o.planCache, "plan-cache", 128, "compiled-plan LRU capacity (negative disables)")
	flag.IntVar(&o.batch, "batch", core.DefaultBatchSize, fmt.Sprintf("batch size for query execution, 1..%d (1 = record-at-a-time), overridable per request with X-Volcano-Batch", core.MaxBatchSize))
	cost := flag.Bool("cost", true, "cost-based planning: fill unset exchange parallelism, packet sizes and match strategy from table statistics, with cardinality feedback on repeats")
	flag.DurationVar(&o.slowQuery, "slow-query", time.Second, "slow-query log threshold; errored/canceled queries are always logged (0 = only those, negative = no log)")
	flag.StringVar(&o.queryLog, "query-log", "", "append slow-query entries to this file as JSON lines (empty = in-memory ring only)")
	flag.StringVar(&o.workers, "workers", "", "comma-separated volcano-worker addresses to register for distributed execution (enables the coordinator)")
	flag.BoolVar(&o.distEnable, "dist", false, "enable the distributed-execution coordinator even with no static workers (they join via POST /dist/register)")
	flag.StringVar(&o.distDataAddr, "dist-data-addr", "", "coordinator data-plane listen address workers stream fragments to (empty = 127.0.0.1:0)")
	flag.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "longest to wait for in-flight queries on shutdown")
	flag.DurationVar(&o.readHeaderTimeout, "read-header-timeout", 5*time.Second, "longest a client may take to send request headers")
	flag.DurationVar(&o.readTimeout, "read-timeout", 30*time.Second, "longest a client may take to send a whole request")
	flag.DurationVar(&o.idleTimeout, "idle-timeout", 2*time.Minute, "longest an idle keep-alive connection is held open")
	flag.DurationVar(&o.writeStall, "write-stall-timeout", 2*time.Minute, "longest one result flush may block on a non-reading client")
	flag.Parse()
	o.noCost = !*cost
	if err := core.CheckBatchSize(o.batch); err != nil {
		fmt.Fprintln(os.Stderr, "volcano-serve: -batch:", err)
		os.Exit(2)
	}

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "volcano-serve:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.db == "" {
		return fmt.Errorf("no database: use -db FILE (create one with volcano -db)")
	}
	// Options built directly (tests, embedding) get the same connection
	// hygiene as the flag defaults; an explicit negative disables a bound.
	if o.readHeaderTimeout == 0 {
		o.readHeaderTimeout = 5 * time.Second
	}
	if o.readTimeout == 0 {
		o.readTimeout = 30 * time.Second
	}
	if o.idleTimeout == 0 {
		o.idleTimeout = 2 * time.Minute
	}
	if o.writeStall == 0 {
		o.writeStall = 2 * time.Minute
	}

	// Storage: the served volume on a disk device, temp space for sorts
	// and hash spills on a memory device, one buffer pool over both.
	reg := device.NewRegistry()
	baseID := reg.NextID()
	disk, err := device.OpenDisk(baseID, o.db)
	if err != nil {
		return err
	}
	if err := reg.Mount(disk); err != nil {
		return err
	}
	tempID := reg.NextID()
	if err := reg.Mount(device.NewMem(tempID)); err != nil {
		return err
	}
	defer reg.CloseAll()

	pool := buffer.NewPool(reg, o.frames, buffer.TwoLevel)
	base, err := file.OpenVolume(pool, baseID)
	if err != nil {
		return err
	}
	env := core.NewEnv(pool, file.NewVolume(pool, tempID))

	mr := metrics.NewRegistry()
	pool.RegisterMetrics(mr)
	device.RegisterMetrics(mr)
	btree.RegisterMetrics(mr)
	core.RegisterMetrics(mr)
	metrics.RegisterGoRuntime(mr)

	// The slow-query file sink outlives the server: closed on return,
	// after the drain has flushed every in-flight query's entry.
	var slowSink io.Writer
	if o.queryLog != "" {
		f, err := os.OpenFile(o.queryLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("query log: %w", err)
		}
		defer f.Close()
		slowSink = f
	}

	// Distributed execution: one coordinator owns the worker registry and
	// the data plane; producer fragments ship to the fleet while root
	// fragments run in this process.
	var coord *dist.Coordinator
	if o.distEnable || o.workers != "" {
		coord, err = dist.NewCoordinator(dist.CoordinatorConfig{
			DataAddr: o.distDataAddr,
			Metrics:  mr,
		})
		if err != nil {
			return err
		}
		defer coord.Close()
		for _, a := range strings.Split(o.workers, ",") {
			if a = strings.TrimSpace(a); a == "" {
				continue
			}
			if err := coord.Register(a); err != nil {
				return err
			}
		}
		fmt.Fprintf(os.Stderr, "volcano-serve: distributed execution on: data plane %s, %d workers registered\n",
			coord.DataAddr(), coord.LiveWorkers())
	}

	srv, err := server.New(server.Config{
		Env:               env,
		Catalog:           plan.VolumeCatalog{base},
		CatalogVersion:    dist.CatalogVersion(o.db, base),
		MaxConcurrent:     o.maxConcurrent,
		MaxProducers:      o.maxProducers,
		MaxQueue:          o.maxQueue,
		QueueWait:         o.queueWait,
		MaxQueryTime:      o.maxQueryTime,
		PlanCacheSize:     o.planCache,
		DisableCosting:    o.noCost,
		WriteStallTimeout: o.writeStall,
		BatchSize:         o.batch,
		SlowQuery:         o.slowQuery,
		SlowLogSink:       slowSink,
		Metrics:           mr,
		Dist:              coord,
	})
	if err != nil {
		return err
	}

	// The signal handler goes in before the listener exists: a supervisor
	// may stop the server the moment /healthz answers, and that SIGTERM
	// must start a drain, not kill the process.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigc)

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	// Connection hygiene: a client that dribbles headers, never finishes
	// its body, or parks an idle keep-alive connection is bounded here;
	// the per-flush write-stall deadline for established streams lives in
	// the server package (http.Server.WriteTimeout would cap total stream
	// duration, which NDJSON streaming cannot accept). Negative flag
	// values disable a bound (http.Server treats negative as none).
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: o.readHeaderTimeout,
		ReadTimeout:       o.readTimeout,
		IdleTimeout:       o.idleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "volcano-serve: build %s\n", metrics.ReadBuildInfo())
	fmt.Fprintf(os.Stderr, "volcano-serve: %s: %d tables, %d indexes; serving on http://%s\n",
		o.db, len(base.List()), len(base.Indexes()), ln.Addr())

	// Optional operations listener: the monitoring surface without /query.
	var metricsSrv *http.Server
	if o.metricsAddr != "" {
		mln, err := net.Listen("tcp", o.metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		mmux := http.NewServeMux()
		metrics.Mount(mmux, mr)
		srv.MountDebug(mmux)
		metricsSrv = &http.Server{Handler: mmux, ReadHeaderTimeout: o.readHeaderTimeout}
		go func() { _ = metricsSrv.Serve(mln) }()
		fmt.Fprintf(os.Stderr, "volcano-serve: metrics on http://%s\n", mln.Addr())
		if o.metricsReadyHook != nil {
			o.metricsReadyHook(mln.Addr().String())
		}
	}
	defer func() {
		if metricsSrv != nil {
			_ = metricsSrv.Close()
		}
	}()

	if o.readyHook != nil {
		o.readyHook(ln.Addr().String())
	}

	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "volcano-serve: %v: draining\n", sig)
	case <-o.stop:
		fmt.Fprintln(os.Stderr, "volcano-serve: stop requested: draining")
	case err := <-errc:
		return fmt.Errorf("serve: %w", err)
	}

	// Graceful drain: reject new work, finish in-flight queries, then
	// stop the HTTP machinery and (via the deferred CloseAll) the volume.
	ctx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		_ = httpSrv.Close()
		return err
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		_ = httpSrv.Close()
	}
	fmt.Fprintln(os.Stderr, "volcano-serve: drained")
	return nil
}

// Package server is the Volcano query service: an HTTP front end that
// accepts plan-language scripts, executes them against a shared read-only
// volume and buffer pool, and streams results as NDJSON. It encapsulates
// the serving concerns the paper's exchange operator does not: admission
// control (bounding concurrent queries and total producer goroutines), a
// compiled-plan cache, per-request cancellation that tears the iterator
// tree down through the exchange shutdown handshake, and graceful drain.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/metrics"
	"repro/internal/plan"
)

// Config configures a query server. Env and Catalog are required; zero
// values elsewhere pick the documented defaults.
type Config struct {
	// Env is the shared execution environment: the buffer pool and the
	// temp volume every admitted query allocates intermediates on.
	Env *core.Env
	// Catalog resolves table (and index) names. It must be safe for
	// concurrent use; VolumeCatalog over a file.Volume is.
	Catalog plan.Catalog
	// CatalogVersion participates in plan-cache keys: bump it when the
	// catalog changes and every cached plan is invalidated at once.
	CatalogVersion string

	// MaxConcurrent bounds queries executing at once (default 4).
	MaxConcurrent int
	// MaxProducers bounds the sum of exchange producer goroutines across
	// all executing queries (default 64). A plan whose own footprint
	// exceeds this is rejected outright with 400.
	MaxProducers int
	// MaxQueue bounds queries waiting for admission; the excess is
	// rejected immediately with 429 (default 16).
	MaxQueue int
	// QueueWait bounds the time one query waits for admission before a
	// 503 (default 10s).
	QueueWait time.Duration
	// MaxQueryTime bounds a query's total execution; 0 means unbounded.
	// Expiry cancels the query mid-stream like a client disconnect.
	MaxQueryTime time.Duration
	// MaxPlanBytes bounds the request body (default 64 KiB).
	MaxPlanBytes int64
	// WriteStallTimeout bounds how long one flush of the result stream may
	// sit in the kernel's send buffer with the client not reading before
	// the connection is severed (0 = unbounded). It is a per-write
	// deadline, not a whole-response deadline: a long-running query that
	// streams for minutes is fine as long as the client keeps consuming.
	// This is what http.Server.WriteTimeout cannot express — that timeout
	// would kill every stream longer than its budget regardless of client
	// behaviour.
	WriteStallTimeout time.Duration
	// PlanCacheSize is the LRU capacity in templates (default 128; a
	// negative value disables the cache).
	PlanCacheSize int
	// DisableCosting turns the cost-based planning pass off: queries
	// execute the compiled template exactly as written, with no knob
	// filling, no choose-plan insertion, no work moved across an
	// exchange, and no cardinality feedback.
	// Costing is on by default; plans that spell out their knobs are
	// left alone either way.
	DisableCosting bool
	// FlushEvery flushes the response stream every N rows (default 64).
	// The first row is always flushed on its own.
	FlushEvery int
	// BatchSize is the batch size every query executes under: plans are
	// built with plan.BuildOptions.BatchSize and the result stream drains
	// the root through NextBatch (default core.DefaultBatchSize, the
	// exchange packet size). A request may override it with the
	// X-Volcano-Batch header, 1..core.MaxBatchSize, where 1 is
	// record-at-a-time.
	BatchSize int

	// SlowQuery is the slow-query threshold: a completed query whose
	// plan-to-trailer wall time meets or exceeds it is recorded in the
	// structured slow-query log. Errored and canceled queries are
	// recorded regardless of duration. Zero keeps the duration trigger
	// off (only errors/cancels are logged); a negative value disables
	// the log entirely.
	SlowQuery time.Duration
	// SlowLogCapacity bounds the in-memory slow-query ring served on
	// GET /debug/slowlog (default 128 entries).
	SlowLogCapacity int
	// SlowLogSink, when non-nil, additionally receives every slow-query
	// entry as one slog JSON line (volcano-serve wires -query-log here).
	// Writes happen per logged query, never per row.
	SlowLogSink io.Writer

	// Metrics, when non-nil, receives the volcano_server_* families and
	// is served on GET /metrics.
	Metrics *metrics.Registry

	// Dist, when non-nil, enables distributed execution: every query
	// build offers its distributable exchange cuts to the coordinator,
	// which ships producer fragments to registered volcano-worker
	// processes while the root fragment runs here. The server also
	// mounts POST /dist/register (worker registration) and GET
	// /debug/workers (fleet view). With no live workers registered the
	// binder declines and queries execute locally, unchanged.
	Dist *dist.Coordinator
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4
	}
	if c.MaxProducers <= 0 {
		c.MaxProducers = 64
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 16
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 10 * time.Second
	}
	if c.MaxPlanBytes <= 0 {
		c.MaxPlanBytes = 64 << 10
	}
	if c.PlanCacheSize == 0 {
		c.PlanCacheSize = 128
	}
	if c.FlushEvery <= 0 {
		c.FlushEvery = 64
	}
	if c.BatchSize <= 0 {
		c.BatchSize = core.DefaultBatchSize
	}
	return c
}

// Server executes plan scripts over HTTP. Create with New, expose
// Handler, and call Drain before process exit.
type Server struct {
	cfg   Config
	m     *serverMetrics
	gov   *governor
	cache *planCache
	life  *lifecycle
	reg   *registry
	slow  *slowLog
	mux   *http.ServeMux

	// catalogVersion is the current plan-cache epoch, seeded from
	// Config.CatalogVersion and bumped by SetCatalogVersion.
	verMu          sync.RWMutex
	catalogVersion string
}

// New builds a Server. The caller owns the listener; Handler returns the
// full mux (POST /query, GET /healthz, GET /metrics, GET /debug/queries
// and /debug/queries/{id}, GET /debug/slowlog, /debug/pprof/).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Env == nil || cfg.Catalog == nil {
		return nil, fmt.Errorf("server: Config.Env and Config.Catalog are required")
	}
	m := newServerMetrics(cfg.Metrics)
	s := &Server{
		cfg:            cfg,
		m:              m,
		gov:            newGovernor(cfg.MaxConcurrent, cfg.MaxProducers, cfg.MaxQueue, m),
		cache:          newPlanCache(cfg.PlanCacheSize, m),
		life:           newLifecycle(),
		reg:            newRegistry(m),
		slow:           newSlowLog(cfg.SlowLogCapacity, cfg.SlowLogSink),
		mux:            http.NewServeMux(),
		catalogVersion: cfg.CatalogVersion,
	}
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/debug/queries", s.handleDebugQueries)
	s.mux.HandleFunc("/debug/queries/", s.handleDebugQuery)
	s.mux.HandleFunc("/debug/slowlog", s.handleDebugSlowlog)
	if cfg.Dist != nil {
		s.mux.HandleFunc("/dist/register", s.handleDistRegister)
		s.mux.HandleFunc("/debug/workers", s.handleDebugWorkers)
	}
	metrics.Mount(s.mux, cfg.Metrics)
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain gracefully shuts the server down: new and queued queries are
// rejected with 503, then Drain blocks until in-flight queries finish or
// ctx expires. It is idempotent. After a nil return the shared volume and
// pool are quiescent and safe to close.
func (s *Server) Drain(ctx context.Context) error {
	s.life.beginDrain()
	s.gov.drain()
	return s.life.wait(ctx)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.life.isDraining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST a plan script to /query", http.StatusMethodNotAllowed)
		return
	}

	// Identity first: every response past this point — success, error,
	// or rejection — names the query, in the header and in the body, so
	// clients, traces, logs and debug views join on one key.
	id := r.Header.Get("X-Volcano-Query-Id")
	if id == "" {
		id = newQueryID()
	} else if !validQueryID(id) {
		s.m.rejParse.Inc()
		writeReject(w, http.StatusBadRequest, "",
			fmt.Sprintf("server: bad X-Volcano-Query-Id %q (want 1-120 chars of [A-Za-z0-9._:-])", id), 0, nil)
		return
	}
	w.Header().Set("X-Volcano-Query-Id", id)

	// Register with the lifecycle before anything else so Drain's wait
	// covers every request past this point.
	if !s.life.enter() {
		s.m.rejDraining.Inc()
		writeReject(w, ErrDraining.Status, id, ErrDraining.Error(), 0, nil)
		return
	}
	defer s.life.exit()

	start := time.Now()
	src, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxPlanBytes))
	if err != nil {
		s.m.rejParse.Inc()
		writeReject(w, http.StatusBadRequest, id, fmt.Sprintf("server: reading plan: %v", err), time.Since(start), nil)
		return
	}
	analyze, err := analyzeRequested(r)
	if err != nil {
		s.m.rejParse.Inc()
		writeReject(w, http.StatusBadRequest, id, err.Error(), time.Since(start), nil)
		return
	}
	batch, err := s.batchSize(r)
	if err != nil {
		s.m.rejParse.Inc()
		writeReject(w, http.StatusBadRequest, id, err.Error(), time.Since(start), nil)
		return
	}

	// Plan phase: resolve the script to a compiled template via the
	// cache, then — unless costing is off — to the entry's costed
	// derivation, whose tree has planner-chosen knobs and whose
	// estimates feed EXPLAIN ANALYZE and the feedback loop.
	entry, cacheHit, err := s.compile(string(src))
	if err != nil {
		planDur := time.Since(start)
		s.m.phasePlan.Observe(planDur)
		s.m.rejParse.Inc()
		writeReject(w, http.StatusBadRequest, id, err.Error(), planDur, nil)
		return
	}
	tpl := entry.tpl
	var costed *plan.CostedPlan
	if !s.cfg.DisableCosting {
		costed = entry.costedFor(s.cfg.Catalog, s.cfg.Dist != nil, s.m)
		tpl = costed.Template
	}
	planDur := time.Since(start)
	s.m.phasePlan.Observe(planDur)

	// The query now has identity, a plan, and a start time: it enters the
	// active registry and stays visible on /debug/queries until done.
	rec := &queryRecord{id: id, source: tpl.Source(), batch: batch, cacheHit: cacheHit, started: start, entry: entry}
	rec.planNs.Store(int64(planDur))
	if err := s.reg.add(rec); err != nil {
		s.m.rejDuplicate.Inc()
		writeReject(w, http.StatusConflict, id, err.Error(), time.Since(start), nil)
		return
	}
	defer s.reg.remove(id)

	qctx := r.Context()
	if s.cfg.MaxQueryTime > 0 {
		var cancel context.CancelFunc
		qctx, cancel = context.WithTimeout(qctx, s.cfg.MaxQueryTime)
		defer cancel()
	}

	// Queued phase: admission control.
	weight := tpl.ProducerGoroutines()
	queuedStart := time.Now()
	admitCtx, cancelAdmit := context.WithTimeout(qctx, s.cfg.QueueWait)
	err = s.gov.admit(admitCtx, weight)
	cancelAdmit()
	queuedDur := time.Since(queuedStart)
	rec.queuedNs.Store(int64(queuedDur))
	s.m.phaseQueued.Observe(queuedDur)
	if err != nil {
		var ae *AdmitError
		if errors.As(err, &ae) {
			s.m.rejectionCounter(ae.Reason).Inc()
			ph := rec.phases()
			writeReject(w, ae.Status, id, ae.Error(), time.Since(start), &ph)
			s.finishQuery(rec, "error", fmt.Sprintf("query %s: %v", id, ae))
			return
		}
		// Otherwise the client disconnected while queued; nobody is
		// listening for a response, but the abandonment still makes the
		// slow-query log — it held a queue position.
		s.finishQuery(rec, "canceled", fmt.Sprintf("query %s: canceled while queued", id))
		return
	}
	defer s.gov.release(weight)

	s.m.admitted.Inc()
	s.m.inFlight.Inc()
	defer s.m.inFlight.Dec()
	admitted := time.Now()
	defer func() { s.m.querySecs.Observe(time.Since(admitted)) }()

	// Execution runs under pprof labels: every profile sample taken on
	// this goroutine — and on any goroutine the exchange forks from it —
	// carries the query identity, so a CPU or goroutine profile slices
	// per query. Exchange producer goroutines drawn from pre-spawned
	// worker pools re-label themselves (core.Exchange does that from
	// BuildOptions.QueryID).
	pprof.Do(qctx, pprof.Labels("query_id", rec.id, "op", "query-handler"), func(ctx context.Context) {
		s.execute(w, ctx, rec, entry, costed, tpl, batch, analyze)
	})
}

// batchSize resolves the effective batch size for one request: the
// X-Volcano-Batch header when present, otherwise the server default.
func (s *Server) batchSize(r *http.Request) (int, error) {
	h := r.Header.Get("X-Volcano-Batch")
	if h == "" {
		return s.cfg.BatchSize, nil
	}
	n, err := strconv.Atoi(h)
	if err == nil {
		err = core.CheckBatchSize(n)
	}
	if err != nil {
		return 0, fmt.Errorf("server: bad X-Volcano-Batch %q: want a batch size in 1..%d (1 is record-at-a-time)", h, core.MaxBatchSize)
	}
	return n, nil
}

// analyzeRequested reads the X-Volcano-Analyze header: "1"/"true" embeds
// the EXPLAIN ANALYZE report of this run in the trailing status object,
// "0"/"false"/"" (absent) does not; anything else is a 400, mirroring
// the X-Volcano-Batch contract.
func analyzeRequested(r *http.Request) (bool, error) {
	switch h := r.Header.Get("X-Volcano-Analyze"); h {
	case "", "0", "false":
		return false, nil
	case "1", "true":
		return true, nil
	default:
		return false, fmt.Errorf("server: bad X-Volcano-Analyze %q (want 1, true, 0, or false)", h)
	}
}

// SetCatalogVersion bumps the plan-cache epoch: subsequent lookups key
// on the new version, and every template cached under any other version
// is purged immediately — stale entries can never hit again, so leaving
// them to age out of the LRU would squat on capacity that live plans
// need. In-flight queries already holding a template are unaffected
// (templates are immutable). Setting the same version is a no-op.
func (s *Server) SetCatalogVersion(v string) {
	s.verMu.Lock()
	changed := s.catalogVersion != v
	s.catalogVersion = v
	s.verMu.Unlock()
	if changed {
		s.cache.purgeExcept(v)
	}
}

// currentCatalogVersion reads the plan-cache epoch.
func (s *Server) currentCatalogVersion() string {
	s.verMu.RLock()
	defer s.verMu.RUnlock()
	return s.catalogVersion
}

// compile resolves a plan source to a cache entry; the bool reports
// whether the lookup hit (so the query's lifecycle record can tell a
// reused template from a fresh compile). With the cache disabled the
// entry is untracked but fully functional.
func (s *Server) compile(src string) (*cacheEntry, bool, error) {
	key := cacheKey(s.currentCatalogVersion(), src)
	if e, ok := s.cache.get(key); ok {
		return e, true, nil
	}
	tpl, err := plan.Compile(src)
	if err != nil {
		return nil, false, err
	}
	return s.cache.put(key, tpl), false, nil
}

// execute builds a fresh iterator tree from the template and streams its
// rows. Past the 200 header, errors travel in the NDJSON trailer. The
// whole query runs at the given batch size.
//
// Every build is analyzed: the instrumentation wrappers' OpStats are
// atomic, so rec exposes live per-operator progress to /debug/queries
// while the query runs, and the final snapshot feeds the slow-query log
// (and, with X-Volcano-Analyze, the trailer) when it completes.
func (s *Server) execute(w http.ResponseWriter, ctx context.Context, rec *queryRecord, entry *cacheEntry, costed *plan.CostedPlan, tpl *plan.Template, batch int, analyze bool) {
	execStart := time.Now()
	rec.state.Store(stateExecuting)
	opts := plan.BuildOptions{
		Analyze:   true,
		Metrics:   s.cfg.Metrics,
		Done:      ctx.Done(),
		BatchSize: batch,
		QueryID:   rec.id,
		Meter:     &rec.meter,
	}
	if costed != nil {
		opts.Estimates = costed.Estimates
	}
	// With a coordinator configured, offer every distributable exchange
	// cut to the worker fleet; the summary collects what actually shipped
	// for the trailer and EXPLAIN ANALYZE.
	var distSum *dist.Summary
	if s.cfg.Dist != nil {
		distSum = &dist.Summary{}
		opts.Remote = s.cfg.Dist.Binder(dist.BindRequest{
			QueryID:        rec.id,
			Source:         tpl.Source(),
			Root:           tpl.Root(),
			CatalogVersion: s.currentCatalogVersion(),
			BatchSize:      batch,
			Env:            s.cfg.Env,
			Cat:            s.cfg.Catalog,
			Meter:          &rec.meter,
			Summary:        distSum,
			Done:           ctx.Done(),
		})
	}
	it, an, err := tpl.Build(s.cfg.Env, s.cfg.Catalog, opts)
	if err != nil {
		s.m.rejPlan.Inc()
		writeReject(w, http.StatusBadRequest, rec.id, err.Error(), time.Since(rec.started), nil)
		s.finishQuery(rec, "error", err.Error())
		return
	}
	for _, fn := range distSum.StatFuncs() {
		an.AddFragment(fn)
	}
	rec.analysis.Store(an)
	if err := it.Open(); err != nil {
		s.m.rejPlan.Inc()
		msg := fmt.Sprintf("server: open: %v", err)
		writeReject(w, http.StatusInternalServerError, rec.id, msg, time.Since(rec.started), nil)
		s.finishQuery(rec, "error", msg)
		return
	}
	execDur := time.Since(execStart)
	rec.executeNs.Store(int64(execDur))
	s.m.phaseExecute.Observe(execDur)
	rec.state.Store(stateStreaming)
	streamStart := time.Now()

	rw := newRowWriter(it.Schema())
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	// Arm the per-write stall deadline and push it forward before every
	// flush: a client that stops reading stalls the next write until the
	// deadline severs the connection, which cancels the request context
	// and tears the iterator tree down through the exchange handshake.
	// Best-effort — ResponseRecorder and other wrappers that cannot set
	// deadlines just leave the stream unbounded, as before.
	rc := http.NewResponseController(w)
	bumpDeadline := func() {
		if s.cfg.WriteStallTimeout > 0 {
			_ = rc.SetWriteDeadline(time.Now().Add(s.cfg.WriteStallTimeout))
		}
	}
	bumpDeadline()
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	var rows int64
	var streamErr error
	emit := func(r core.Rec) error {
		line, err := rw.row(r.Data)
		if err != nil {
			return err
		}
		if _, err := w.Write(line); err != nil {
			return err
		}
		rows++
		// The per-record bookkeeping budget: one atomic add for the live
		// registry and two for the resource meter, zero allocations
		// (TestRegistryHotPathZeroAlloc, TestMeterHotPathZeroAlloc).
		rec.addRows(1)
		rec.meter.StreamRow(len(line))
		// The first row leaves at once, whatever the protocol; after it,
		// one flush every FlushEvery rows.
		if flusher != nil && (rows == 1 || rows%int64(s.cfg.FlushEvery) == 0) {
			bumpDeadline()
			flusher.Flush()
		}
		return nil
	}
	streamErr = drainBatches(ctx, it, batch, emit)
	closeErr := it.Close()
	s.m.rowsOut.Add(rows)
	rec.streamNs.Store(int64(time.Since(streamStart)))
	s.m.phaseStream.Observe(time.Since(streamStart))

	// Errors below are stamped with the query ID: the trailer names it in
	// query_id anyway, but cancellation and failure messages travel on to
	// logs and client-side error reports, where the ID is the join key
	// back to traces and the slow-query log.
	t := trailer{Status: "ok", Rows: rows, QueryID: rec.id}
	switch {
	case ctx.Err() != nil:
		// Client disconnect or deadline: the exchange teardown already ran
		// via Done + Close. The trailer is best-effort — on a disconnect
		// nobody reads it.
		s.m.canceled.Inc()
		t.Status = "canceled"
		t.Error = fmt.Sprintf("query %s: %v", rec.id, ctx.Err())
	case streamErr != nil && !errors.Is(streamErr, core.ErrCanceled):
		t.Status = "error"
		t.Error = fmt.Sprintf("query %s: %v", rec.id, streamErr)
	case closeErr != nil && !errors.Is(closeErr, core.ErrCanceled):
		t.Status = "error"
		t.Error = fmt.Sprintf("query %s: %v", rec.id, closeErr)
	}
	ph := rec.phases()
	t.Phases = &ph
	t.ElapsedMs = float64(time.Since(rec.started)) / 1e6
	// The attributed resource bill rides every trailer — success, error
	// or cancellation — from the same snapshot the slow-query log and the
	// volcano_server_query_* totals read.
	res := an.Resources()
	t.Resources = &res
	if frags := distSum.Fragments(); len(frags) > 0 {
		t.Dist = &distStatus{
			Fragments:     frags,
			Retries:       distSum.Retries.Load(),
			WireRecvBytes: distSum.WireRecv.Load(),
		}
	}
	if analyze {
		t.Analyze = an.String()
	}
	if costed != nil {
		s.recordChoices(costed, an)
		// Feedback only on clean completion: a canceled or errored run
		// observed a truncated row flow, which would look like a gross
		// mis-estimate and trigger a spurious re-plan.
		if t.Status == "ok" {
			entry.feedback(costed, an, s.m)
		}
	}
	bumpDeadline()
	_, _ = w.Write(t.render())
	if flusher != nil {
		flusher.Flush()
	}

	s.finishQuery(rec, t.Status, t.Error)
}

// drainBatches streams it into emit through NextBatch refills until the
// stream ends, a pull or emit fails, or ctx is done. The first pulls go
// through a one-slot batch, so the first row reaches emit after one record
// and a one-row answer allocates no batch storage beyond that slot; once
// the stream is past its first row, each pull fills a batch of size. The
// pins of a batch are released in one coalesced pass.
func drainBatches(ctx context.Context, it core.Iterator, size int, emit func(core.Rec) error) error {
	b := core.NewBatch(1)
	rows := 0
	for ctx.Err() == nil {
		if err := it.NextBatch(b); err != nil {
			return err
		}
		if b.Len() == 0 {
			return nil
		}
		for _, r := range b.Recs() {
			if err := emit(r); err != nil {
				b.Release()
				return err
			}
		}
		rows += b.Len()
		b.Release()
		if rows > 1 && b.Target() < size {
			b = core.NewBatch(size)
		}
	}
	return nil
}

// recordChoices settles the run's choose-plan decisions into the
// volcano_planner_choices_total{alt} family.
func (s *Server) recordChoices(cp *plan.CostedPlan, an *plan.Analysis) {
	var walk func(n *plan.Node)
	walk = func(n *plan.Node) {
		if n.Kind == plan.KindChoosePlan {
			if i := an.Choice(n); i >= 0 {
				alt := strconv.Itoa(i)
				if n.Choose != nil && i < len(n.Choose.Labels) {
					alt = n.Choose.Labels[i]
				}
				s.m.choiceCounter(alt).Inc()
			}
		}
		for _, in := range n.Inputs {
			walk(in)
		}
	}
	walk(cp.Template.Root())
}

// finishQuery settles a query's lifecycle accounting: rows by outcome,
// and — when the query was slow, errored, or canceled — one structured
// slow-query log entry carrying the final per-operator snapshot.
func (s *Server) finishQuery(rec *queryRecord, outcome, errText string) {
	s.m.rowsCounter(outcome).Add(rec.rows.Load())
	// Settle the query's resource bill into the process-wide totals; the
	// snapshot is final here (the iterator tree is closed), so per-query
	// meters sum exactly to these counters.
	res := rec.resources()
	s.m.queryCPUNanos.Add(int64(res.CPUSeconds * 1e9))
	s.m.queryIOBytes.Add(res.IOBytes())
	s.m.queryBufFixes.Add(res.BufferFixes)
	if s.cfg.SlowQuery < 0 {
		return
	}
	elapsed := time.Since(rec.started)
	slow := s.cfg.SlowQuery > 0 && elapsed >= s.cfg.SlowQuery
	if outcome == "ok" && !slow {
		return
	}
	var ops *plan.OpSnapshot
	if an := rec.analysis.Load(); an != nil {
		snap := an.Snapshot()
		ops = &snap
	}
	s.m.slowQueries.Inc()
	s.slow.record(slowLogEntry{
		Time:      time.Now(),
		QueryID:   rec.id,
		Plan:      rec.source,
		Batch:     rec.batch,
		CacheHit:  rec.cacheHit,
		Outcome:   outcome,
		Error:     errText,
		Rows:      rec.rows.Load(),
		ElapsedMs: float64(elapsed) / 1e6,
		Phases:    rec.phases(),
		Operators: ops,
		Resources: &res,
	})
}

// lifecycle tracks in-flight requests and the draining flag. It replaces
// a bare WaitGroup because requests must atomically check "draining?"
// while registering — Add racing Wait is not defined for WaitGroup.
type lifecycle struct {
	mu       sync.Mutex
	inFlight int
	draining bool
	idle     chan struct{} // closed when draining and inFlight hits 0
}

func newLifecycle() *lifecycle {
	return &lifecycle{idle: make(chan struct{})}
}

// enter registers a request; false means the server is draining.
func (l *lifecycle) enter() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.draining {
		return false
	}
	l.inFlight++
	return true
}

func (l *lifecycle) exit() {
	l.mu.Lock()
	l.inFlight--
	if l.draining && l.inFlight == 0 {
		l.closeIdleLocked()
	}
	l.mu.Unlock()
}

func (l *lifecycle) beginDrain() {
	l.mu.Lock()
	if !l.draining {
		l.draining = true
		if l.inFlight == 0 {
			l.closeIdleLocked()
		}
	}
	l.mu.Unlock()
}

func (l *lifecycle) closeIdleLocked() {
	select {
	case <-l.idle:
	default:
		close(l.idle)
	}
}

func (l *lifecycle) isDraining() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.draining
}

// wait blocks until drain completes or ctx expires.
func (l *lifecycle) wait(ctx context.Context) error {
	select {
	case <-l.idle:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain: %w", ctx.Err())
	}
}

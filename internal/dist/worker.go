package dist

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/plan"
)

// WorkerConfig configures a fragment worker.
type WorkerConfig struct {
	// Env and Catalog are the worker's execution environment — its own
	// buffer pool over (a replica of) the same volume the coordinator
	// serves. Both required.
	Env     *core.Env
	Catalog plan.Catalog
	// CatalogVersion is compared against each dispatch; a mismatch is
	// rejected with 409 (the coordinator planned against different data).
	// Empty disables the check.
	CatalogVersion string
	// Metrics, when non-nil, receives the worker's volcano_dist_*
	// families.
	Metrics *metrics.Registry
	// DialTimeout bounds the data-plane dial back to the coordinator
	// (default 5s).
	DialTimeout time.Duration
	// Log receives one line per fragment outcome (nil = log.Default).
	Log *log.Logger
}

// Worker executes plan fragments on behalf of a coordinator. Mount
// Handler on an HTTP listener and register the address with the
// coordinator; dispatches arrive as POST /fragment and their record
// streams leave over raw TCP toward the coordinator's data plane.
type Worker struct {
	cfg WorkerConfig
	m   *workerMetrics
	mux *http.ServeMux

	mu      sync.Mutex
	stopped bool
	conns   map[net.Conn]struct{}
	wg      sync.WaitGroup
}

// NewWorker validates the configuration.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Env == nil || cfg.Catalog == nil {
		return nil, fmt.Errorf("dist: WorkerConfig.Env and Catalog are required")
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.Log == nil {
		cfg.Log = log.Default()
	}
	w := &Worker{
		cfg:   cfg,
		m:     newWorkerMetrics(cfg.Metrics),
		mux:   http.NewServeMux(),
		conns: map[net.Conn]struct{}{},
	}
	w.mux.HandleFunc("/fragment", w.handleFragment)
	w.mux.HandleFunc("/healthz", w.handleHealthz)
	metrics.Mount(w.mux, cfg.Metrics)
	return w, nil
}

// Handler returns the worker's HTTP handler (POST /fragment,
// GET /healthz, GET /metrics).
func (w *Worker) Handler() http.Handler { return w.mux }

// Stop makes the worker refuse new fragments, severs every active
// data-plane connection mid-stream — exactly what a process kill does to
// the coordinator, which is the point: tests exercise worker loss
// through it — and waits for fragment goroutines to unwind.
func (w *Worker) Stop() {
	w.mu.Lock()
	w.stopped = true
	for c := range w.conns {
		_ = c.Close()
	}
	w.mu.Unlock()
	w.wg.Wait()
}

func (w *Worker) handleHealthz(rw http.ResponseWriter, r *http.Request) {
	w.mu.Lock()
	stopped := w.stopped
	w.mu.Unlock()
	if stopped {
		http.Error(rw, "stopping", http.StatusServiceUnavailable)
		return
	}
	rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(rw, "ok")
}

// handleFragment validates a dispatch and runs it. The HTTP response
// only acknowledges acceptance — the fragment's actual outcome travels
// on the data plane (an EOS or error frame), where the coordinator is
// already listening.
func (w *Worker) handleFragment(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		rw.Header().Set("Allow", http.MethodPost)
		http.Error(rw, "POST a fragment spec", http.StatusMethodNotAllowed)
		return
	}
	var spec FragmentSpec
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&spec); err != nil {
		w.m.rejected.Inc()
		http.Error(rw, fmt.Sprintf("dist: bad fragment spec: %v", err), http.StatusBadRequest)
		return
	}
	if spec.Endpoint == "" || spec.Producer < 0 {
		w.m.rejected.Inc()
		http.Error(rw, "dist: fragment spec missing endpoint or producer", http.StatusBadRequest)
		return
	}
	if err := core.CheckBatchSize(spec.BatchSize); err != nil {
		w.m.rejected.Inc()
		http.Error(rw, fmt.Sprintf("dist: bad fragment spec: %v", err), http.StatusBadRequest)
		return
	}
	if w.cfg.CatalogVersion != "" && spec.CatalogVersion != "" && spec.CatalogVersion != w.cfg.CatalogVersion {
		w.m.rejected.Inc()
		http.Error(rw, fmt.Sprintf("dist: catalog version mismatch: coordinator %q, worker %q",
			spec.CatalogVersion, w.cfg.CatalogVersion), http.StatusConflict)
		return
	}
	// Compile before accepting: a plan that cannot parse is the
	// coordinator's bug and deserves a synchronous 400, not a dangling
	// data-plane wait.
	tpl, err := plan.Compile(spec.Plan)
	if err != nil {
		w.m.rejected.Inc()
		http.Error(rw, fmt.Sprintf("dist: compile: %v", err), http.StatusBadRequest)
		return
	}
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		w.m.rejected.Inc()
		http.Error(rw, "dist: worker stopping", http.StatusServiceUnavailable)
		return
	}
	w.wg.Add(1)
	w.mu.Unlock()
	go func() {
		defer w.wg.Done()
		w.runFragment(tpl, spec)
	}()
	rw.WriteHeader(http.StatusAccepted)
}

// track registers a live data-plane connection for Stop to sever;
// returns false when the worker is already stopping.
func (w *Worker) track(c net.Conn) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.stopped {
		return false
	}
	w.conns[c] = struct{}{}
	return true
}

func (w *Worker) untrack(c net.Conn) {
	w.mu.Lock()
	delete(w.conns, c)
	w.mu.Unlock()
}

// runFragment executes one dispatched fragment: dial the coordinator's
// data plane, identify the stream with a hello frame, build the producer
// subtree, and stream its records — skipping the first Skip on a
// skip-replay resume. Build and execution errors travel back as an
// error-EOS frame; transport errors just sever the stream (the
// coordinator treats a missing EOS as worker loss).
func (w *Worker) runFragment(tpl *plan.Template, spec FragmentSpec) {
	w.m.active.Inc()
	defer w.m.active.Dec()
	conn, err := net.DialTimeout("tcp", spec.Endpoint, w.cfg.DialTimeout)
	if err != nil {
		w.m.failed.Inc()
		w.cfg.Log.Printf("dist: worker: query %s fragment %s/%d attempt %d: dial %s: %v",
			spec.QueryID, spec.Path, spec.Producer, spec.Attempt, spec.Endpoint, err)
		return
	}
	defer conn.Close()
	if tc, ok := conn.(*net.TCPConn); ok {
		// Cap the kernel send buffer: together with the coordinator's
		// capped receive buffer this bounds how far a fragment stream can
		// run ahead of the consuming query — the wire path's transmit
		// window, mirroring the in-process exchange's bounded queue.
		_ = tc.SetWriteBuffer(64 << 10)
	}
	if !w.track(conn) {
		return
	}
	defer w.untrack(conn)

	s := core.NewWireSender(conn, 0)
	if err := s.Hello(Hello{
		QueryID:  spec.QueryID,
		Path:     spec.Path,
		Producer: spec.Producer,
		Attempt:  spec.Attempt,
	}.encode()); err != nil {
		w.m.failed.Inc()
		return
	}
	streamErr := w.streamFragment(s, tpl, spec)
	frames, bytes := s.Stats()
	_ = frames
	w.m.wireSent.Add(bytes)
	if streamErr != nil {
		w.m.failed.Inc()
		w.cfg.Log.Printf("dist: worker: query %s fragment %s/%d attempt %d: %v",
			spec.QueryID, spec.Path, spec.Producer, spec.Attempt, streamErr)
		return
	}
	w.m.accepted.Inc()
}

// streamFragment builds and drains the producer subtree into the
// sender. The returned error is what went wrong locally; whatever could
// be reported to the coordinator already has been (as an error-EOS).
func (w *Worker) streamFragment(s *core.WireSender, tpl *plan.Template, spec FragmentSpec) error {
	fail := func(err error) error {
		// Best effort: the coordinator would otherwise wait out its
		// frame timeout.
		_ = s.CloseEOS(err.Error())
		return err
	}
	it, err := plan.BuildFragmentProducer(w.cfg.Env, w.cfg.Catalog, tpl.Root(), spec.Path, spec.Producer,
		plan.BuildOptions{BatchSize: spec.BatchSize, QueryID: spec.QueryID, Metrics: w.cfg.Metrics})
	if err != nil {
		return fail(fmt.Errorf("build: %w", err))
	}
	if err := it.Open(); err != nil {
		return fail(fmt.Errorf("open: %w", err))
	}
	// send copies a record onto the wire (or skips it on a replay); the
	// caller still owns the record's pin.
	skip := spec.Skip
	send := func(r core.Rec) error {
		if skip > 0 {
			skip--
			return nil
		}
		return s.Add(r.Data)
	}
	var runErr error
	b := core.NewBatch(spec.BatchSize)
	for {
		if err := it.NextBatch(b); err != nil {
			runErr = err
			break
		}
		if b.Len() == 0 {
			break
		}
		var sendErr error
		for _, r := range b.Recs() {
			if sendErr = send(r); sendErr != nil {
				break
			}
		}
		// One coalesced release per batch, sent records or not.
		b.Release()
		if sendErr != nil {
			// Transport gone: stop pulling, skip the EOS.
			_ = it.Close()
			return sendErr
		}
	}
	if cerr := it.Close(); runErr == nil && cerr != nil {
		runErr = cerr
	}
	if runErr != nil {
		_ = s.CloseEOS(runErr.Error())
		return runErr
	}
	return s.CloseEOS("")
}

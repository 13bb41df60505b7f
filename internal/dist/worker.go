package dist

import (
	"context"
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
	// Log receives one line per fragment outcome (nil = log.Default).
	Log *log.Logger
}

// Worker executes plan fragments on behalf of a coordinator. Mount
// Handler on an HTTP listener and register the address with the
// coordinator; dispatches arrive as POST /fragment and each one's record
// stream leaves as the body of its response.
type Worker struct {
	cfg WorkerConfig
	m   *workerMetrics
	mux *http.ServeMux

	mu      sync.Mutex
	stopped bool
	streams map[*http.ResponseController]struct{}
	wg      sync.WaitGroup
}

// NewWorker validates the configuration.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Env == nil || cfg.Catalog == nil {
		return nil, fmt.Errorf("dist: WorkerConfig.Env and Catalog are required")
	}
	if cfg.Log == nil {
		cfg.Log = log.Default()
	}
	w := &Worker{
		cfg:     cfg,
		m:       newWorkerMetrics(cfg.Metrics),
		mux:     http.NewServeMux(),
		streams: map[*http.ResponseController]struct{}{},
	}
	w.mux.HandleFunc("/fragment", w.handleFragment)
	w.mux.HandleFunc("/healthz", w.handleHealthz)
	metrics.Mount(w.mux, cfg.Metrics)
	return w, nil
}

// Handler returns the worker's HTTP handler (POST /fragment,
// GET /healthz, GET /metrics).
func (w *Worker) Handler() http.Handler { return w.mux }

// CapSendBuffer is an http.Server.ConnContext that caps the kernel send
// buffer of every connection the worker accepts at 64 KiB. Together
// with the coordinator's capped receive buffer (dataRcvBuf) it bounds
// how far a fragment stream can run ahead of the consuming query — the
// wire path's transmit window, mirroring the in-process exchange's
// bounded queue.
func CapSendBuffer(ctx context.Context, c net.Conn) context.Context {
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetWriteBuffer(64 << 10)
	}
	return ctx
}

// Stop makes the worker refuse new fragments, cuts every live fragment
// stream before its EOS — exactly what a process kill does to the
// coordinator, which is the point: tests exercise worker loss through
// it — and waits for the fragments to unwind.
func (w *Worker) Stop() {
	w.mu.Lock()
	w.stopped = true
	for rc := range w.streams {
		// A write deadline already reached fails the pending write and
		// every later one, so the response never completes and net/http
		// drops the connection.
		_ = rc.SetWriteDeadline(time.Now())
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

// handleFragment validates a dispatch and runs it. A refusal is a 4xx
// (503 while stopping); an accepted fragment answers 200 at once and
// streams its frames as the response body, ending in an EOS or error
// frame.
func (w *Worker) handleFragment(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		rw.Header().Set("Allow", http.MethodPost)
		http.Error(rw, "POST a fragment spec", http.StatusMethodNotAllowed)
		return
	}
	var spec FragmentSpec
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		w.m.rejected.Inc()
		http.Error(rw, fmt.Sprintf("dist: bad fragment spec: %v", err), http.StatusBadRequest)
		return
	}
	if spec.Skip < 0 {
		w.m.rejected.Inc()
		http.Error(rw, "dist: fragment spec has a negative skip", http.StatusBadRequest)
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
	// Decode and check the fragment before accepting: a node no parser
	// would have produced is the coordinator's bug and deserves a 400,
	// not a stream that fails.
	x, err := plan.DecodeFragment(spec.Fragment)
	if err != nil {
		w.m.rejected.Inc()
		http.Error(rw, fmt.Sprintf("dist: bad fragment spec: %v", err), http.StatusBadRequest)
		return
	}
	if spec.Producer < 0 || spec.Producer >= x.X.Producers {
		w.m.rejected.Inc()
		http.Error(rw, fmt.Sprintf("dist: bad fragment spec: producer %d of %d", spec.Producer, x.X.Producers), http.StatusBadRequest)
		return
	}
	rc := http.NewResponseController(rw)
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		w.m.rejected.Inc()
		http.Error(rw, "dist: worker stopping", http.StatusServiceUnavailable)
		return
	}
	w.streams[rc] = struct{}{}
	w.wg.Add(1)
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		delete(w.streams, rc)
		w.mu.Unlock()
		w.wg.Done()
	}()
	w.runFragment(r.Context(), rw, rc, x, spec)
}

// frameWriter hands each write of the sender's buffer — one or more
// whole frames — to the connection at once.
type frameWriter struct {
	w  io.Writer
	rc *http.ResponseController
}

func (f frameWriter) Write(p []byte) (int, error) {
	n, err := f.w.Write(p)
	if err == nil {
		err = f.rc.Flush()
	}
	return n, err
}

// runFragment answers 200, builds the producer subtree and streams its
// records into the response — skipping the first Skip on a skip-replay
// resume. Build and execution errors travel back as an error-EOS frame;
// transport errors just cut the stream (the coordinator treats a
// missing EOS as worker loss).
func (w *Worker) runFragment(ctx context.Context, rw http.ResponseWriter, rc *http.ResponseController, x *plan.Node, spec FragmentSpec) {
	w.m.active.Inc()
	defer w.m.active.Dec()
	rw.Header().Set("Content-Type", "application/octet-stream")
	rw.WriteHeader(http.StatusOK)
	s := core.NewWireSender(frameWriter{w: rw, rc: rc}, 0)
	// The header goes out at once: the coordinator's wait for it is
	// bounded, and a fragment may compute long before its first frame.
	streamErr := rc.Flush()
	if streamErr == nil {
		streamErr = w.streamFragment(ctx, s, x, spec)
	}
	_, bytes := s.Stats()
	w.m.wireSent.Add(bytes)
	if streamErr != nil {
		w.m.failed.Inc()
		w.cfg.Log.Printf("dist: worker: query %s fragment %s/%d attempt %d: %v",
			spec.QueryID, spec.Path, spec.Producer, spec.Attempt, streamErr)
		return
	}
	w.m.accepted.Inc()
}

// streamFragment builds the producer subtree and drains it into the
// sender. The returned error is what went wrong locally; whatever could
// be reported to the coordinator already has been (as an error-EOS).
// ctx ends when the coordinator hangs up, which abandons any exchange
// inside the fragment.
func (w *Worker) streamFragment(ctx context.Context, s *core.WireSender, x *plan.Node, spec FragmentSpec) error {
	it, err := plan.BuildFragmentProducer(w.cfg.Env, w.cfg.Catalog, x, spec.Producer,
		plan.BuildOptions{BatchSize: spec.BatchSize, QueryID: spec.QueryID, Done: ctx.Done()})
	if err != nil {
		err = fmt.Errorf("build: %w", err)
		// Best effort: the coordinator would otherwise read a cut
		// stream and retry a fragment that cannot build anywhere.
		_ = s.CloseEOS(err.Error())
		return err
	}
	return core.SendWire(s, it, spec.BatchSize, spec.Skip)
}

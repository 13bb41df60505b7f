package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/plan"
)

// WorkerConfig configures the fragment half of a node.
type WorkerConfig struct {
	// Env and Catalog are the node's execution environment — its own
	// buffer pool over (a replica of) the same volume the coordinator
	// serves.
	Env     *core.Env
	Catalog plan.Catalog
	// CatalogVersion is compared against each dispatch; a mismatch is
	// rejected with 409 (the coordinator planned against different data).
	// Empty disables the check.
	CatalogVersion string
	// Metrics, when non-nil, receives the volcano_dist_worker_* families
	// and the sent side of volcano_dist_wire_bytes_total.
	Metrics *metrics.Registry
}

// Worker is what a node knows of the wire when a coordinator ships it a
// fragment: the checks a dispatch must pass (Accept) and the stream its
// records leave as (Run). The serving layer (server.Server, which mounts
// POST /fragment on every node) admits, registers and meters each
// fragment in between.
type Worker struct {
	cfg WorkerConfig
	m   *workerMetrics
}

// NewWorker returns the fragment half of a node over cfg.
func NewWorker(cfg WorkerConfig) *Worker {
	return &Worker{cfg: cfg, m: newWorkerMetrics(cfg.Metrics)}
}

// Fragment is a dispatch that passed Accept's checks.
type Fragment struct {
	Spec FragmentSpec
	x    *plan.Node // the cut's exchange node, decoded and checked
}

// Goroutines is the fragment's weight against the node's producer
// budget: the producers of the exchanges nested in its subtree, and at
// least one for the handler that drains it.
func (f *Fragment) Goroutines() int {
	return max(1, plan.ProducerGoroutines(f.x.Inputs[0]))
}

// ConnContext is an http.Server.ConnContext that keeps each accepted
// connection in its requests' context, so Run can cap the send buffer of
// a connection that carries a fragment.
func ConnContext(ctx context.Context, c net.Conn) context.Context {
	return context.WithValue(ctx, connKey{}, c)
}

type connKey struct{}

// capSendBuffer caps the kernel send buffer of the connection r arrived
// on at 64 KiB. Together with the coordinator's capped receive buffer
// (dataRcvBuf) it bounds how far a fragment stream can run ahead of the
// consuming query — the wire path's transmit window, mirroring the
// in-process exchange's bounded queue. Query connections keep the kernel
// default.
func capSendBuffer(r *http.Request) {
	if tc, ok := r.Context().Value(connKey{}).(*net.TCPConn); ok {
		_ = tc.SetWriteBuffer(64 << 10)
	}
}

// Accept reads and checks one dispatch. A spec that is malformed, names
// a producer the cut does not have, or was planned against another
// catalog is answered here with a 4xx and counted as rejected; Accept
// then returns nil.
func (w *Worker) Accept(rw http.ResponseWriter, r *http.Request) *Fragment {
	var spec FragmentSpec
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		w.Refuse(rw, http.StatusBadRequest, fmt.Sprintf("dist: bad fragment spec: %v", err))
		return nil
	}
	if spec.Skip < 0 {
		w.Refuse(rw, http.StatusBadRequest, "dist: fragment spec has a negative skip")
		return nil
	}
	if err := core.CheckBatchSize(spec.BatchSize); err != nil {
		w.Refuse(rw, http.StatusBadRequest, fmt.Sprintf("dist: bad fragment spec: %v", err))
		return nil
	}
	if w.cfg.CatalogVersion != "" && spec.CatalogVersion != "" && spec.CatalogVersion != w.cfg.CatalogVersion {
		w.Refuse(rw, http.StatusConflict, fmt.Sprintf("dist: catalog version mismatch: coordinator %q, worker %q",
			spec.CatalogVersion, w.cfg.CatalogVersion))
		return nil
	}
	// Decode and check the fragment before accepting: a node no parser
	// would have produced is the coordinator's bug and deserves a 400,
	// not a stream that fails.
	x, err := plan.DecodeFragment(spec.Fragment)
	if err != nil {
		w.Refuse(rw, http.StatusBadRequest, fmt.Sprintf("dist: bad fragment spec: %v", err))
		return nil
	}
	if spec.Producer < 0 || spec.Producer >= x.X.Producers {
		w.Refuse(rw, http.StatusBadRequest, fmt.Sprintf("dist: bad fragment spec: producer %d of %d", spec.Producer, x.X.Producers))
		return nil
	}
	return &Fragment{Spec: spec, x: x}
}

// Refuse answers a dispatch the node will not run and counts it as
// rejected. The coordinator fails the whole query on a 4xx, and retries
// a 5xx elsewhere as worker loss.
func (w *Worker) Refuse(rw http.ResponseWriter, status int, msg string) {
	w.m.rejected.Inc()
	http.Error(rw, msg, status)
}

// Busy refuses a dispatch for load: a 503 with Retry-After, which the
// coordinator backs off from and sends again without taking the node
// out of rotation.
func (w *Worker) Busy(rw http.ResponseWriter, msg string) {
	rw.Header().Set("Retry-After", "1")
	w.Refuse(rw, http.StatusServiceUnavailable, msg)
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

// Run answers 200, builds f's producer subtree with o (batch size and
// query ID from the spec; Done from the request, which ends when the
// coordinator hangs up) and streams its records into the response —
// skipping the first Skip on a skip-replay resume. Build and execution
// errors travel back as an error-EOS frame; transport errors just cut
// the stream (the coordinator treats a missing EOS as worker loss). The
// returned error is what went wrong on this side.
func (w *Worker) Run(rw http.ResponseWriter, r *http.Request, f *Fragment, o plan.BuildOptions) error {
	w.m.active.Inc()
	defer w.m.active.Dec()
	capSendBuffer(r)
	rc := http.NewResponseController(rw)
	rw.Header().Set("Content-Type", "application/octet-stream")
	rw.WriteHeader(http.StatusOK)
	s := core.NewWireSender(frameWriter{w: rw, rc: rc}, 0)
	// The header goes out at once: the coordinator's wait for it is
	// bounded, and a fragment may compute long before its first frame.
	err := rc.Flush()
	if err == nil {
		o.BatchSize, o.QueryID, o.Done = f.Spec.BatchSize, f.Spec.QueryID, r.Context().Done()
		var it core.Iterator
		if it, err = plan.BuildFragmentProducer(w.cfg.Env, w.cfg.Catalog, f.x, f.Spec.Producer, o); err != nil {
			// Best effort: the coordinator would otherwise read a cut
			// stream and retry a fragment that cannot build anywhere.
			err = fmt.Errorf("build: %w", err)
			_ = s.CloseEOS(err.Error())
		} else {
			err = core.SendWire(s, it, f.Spec.BatchSize, f.Spec.Skip)
		}
	}
	_, bytes := s.Stats()
	w.m.wireSent.Add(bytes)
	if err != nil {
		w.m.failed.Inc()
		return err
	}
	w.m.accepted.Inc()
	return nil
}

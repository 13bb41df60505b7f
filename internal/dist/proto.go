// Package dist is the distributed-execution layer: a coordinator that
// splits plans at exchange boundaries (see plan.Cuts) and ships producer
// fragments to a fleet of volcano-worker processes, and the worker that
// executes them. Control travels over HTTP (register, dispatch,
// heartbeat); data travels over raw TCP in the netexchange wire format
// of internal/core — the same length-prefixed frames that cross a
// NetExchange's transport, so a fragment's output stream is
// indistinguishable from a local shared-nothing exchange's.
//
// A fragment ships by position, not by value: the coordinator sends the
// whole normalized plan source plus the dotted child-index path of the
// exchange cut and one producer index. Compilation is deterministic, so
// the worker recompiles, navigates to the cut and builds exactly the
// producer subtree the local exchange's NewProducer closure would have
// built — no plan serialization format to maintain.
//
// Worker loss is survived by skip-replay: the coordinator counts the
// records each fragment delivered into the consuming operator and
// re-dispatches a dead fragment with that count as Skip; the replacement
// worker re-executes the (deterministic) fragment and discards the
// first Skip records before streaming. Fragments whose subtree contains
// a nested non-inline exchange are not order-deterministic and are only
// retried from zero (see plan.Deterministic).
package dist

import "encoding/json"

// FragmentSpec is the dispatch request the coordinator POSTs to a
// worker's /fragment endpoint.
type FragmentSpec struct {
	// QueryID is the coordinator-side query identity; it joins the
	// worker's logs and the data-plane hello with the coordinator's
	// registry, traces and slow-query log.
	QueryID string `json:"query_id"`
	// Plan is the full normalized plan source the query compiled from.
	Plan string `json:"plan"`
	// CatalogVersion guards against executing against a different
	// catalog epoch than the coordinator planned under; a worker whose
	// version differs rejects the dispatch.
	CatalogVersion string `json:"catalog_version,omitempty"`
	// Path locates the exchange cut in the compiled tree (plan.NodeAtPath)
	// and Producer selects which of its producer subtrees to run.
	Path     string `json:"path"`
	Producer int    `json:"producer"`
	// Attempt numbers the dispatch (1 = first); it travels in the
	// data-plane hello so the coordinator can tell a replacement stream
	// from a stale one.
	Attempt int `json:"attempt"`
	// Skip is the number of leading records the worker must produce and
	// discard before streaming — the skip-replay resume point.
	Skip int64 `json:"skip"`
	// BatchSize is the batch size the fragment is built and pulled at,
	// 1..core.MaxBatchSize (1 is record-at-a-time), mirroring the
	// coordinator's own build.
	BatchSize int `json:"batch_size"`
	// Endpoint is the coordinator's data-plane TCP address the worker
	// must dial and stream frames to.
	Endpoint string `json:"endpoint"`
}

// Hello is the JSON payload of the WireFlagHello frame that opens every
// data-plane connection: it tells the coordinator which fragment stream
// the connection carries.
type Hello struct {
	QueryID  string `json:"query_id"`
	Path     string `json:"path"`
	Producer int    `json:"producer"`
	Attempt  int    `json:"attempt"`
}

func (h Hello) encode() []byte {
	b, _ := json.Marshal(h)
	return b
}

// RegisterRequest is what a worker POSTs to the coordinator's
// /dist/register endpoint (volcano-serve mounts it): the address the
// coordinator should dispatch fragments to and health-check.
type RegisterRequest struct {
	Addr string `json:"addr"`
}

// WorkerInfo describes one registered worker on /debug/workers.
type WorkerInfo struct {
	Addr      string `json:"addr"`
	Live      bool   `json:"live"`
	Fragments int64  `json:"fragments"` // dispatches sent to this worker
	Failures  int64  `json:"failures"`  // dispatches that ended in failure/loss
}

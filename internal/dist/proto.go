// Package dist is the distributed-execution layer: a coordinator that
// splits plans at the exchange boundaries plan.Distributable accepts and
// ships producer fragments to a fleet of nodes (volcano-serve
// -coordinator), and the worker side's checks and stream, which every
// node's server mounts as POST /fragment. Everything travels over HTTP
// (register, dispatch, heartbeat). A fragment takes one connection: the
// coordinator POSTs its spec to /fragment, and the response body is the
// fragment's record stream in the wire format of internal/core — the worker's
// core.SendWire drains the fragment into length-prefixed frames, and the
// coordinator decodes them with core.ReadWireFrame. Keep-alive returns
// the connection to the coordinator's pool once the stream has ended.
// This is the repo's one shared-nothing exchange.
//
// A fragment ships by value: the coordinator sends the exchange node its
// own build was offered — costed, with any partial aggregate or pushed
// join below the cut — as JSON, plus one producer index. The worker
// decodes and checks it (plan.DecodeFragment) and builds exactly the
// producer subtree the local exchange's NewProducer closure would have
// built; it neither parses nor costs.
//
// Worker loss is survived by skip-replay: the coordinator counts the
// records each fragment has handed the cut's exchange hub and
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
	// worker's logs with the coordinator's registry, traces and
	// slow-query log.
	QueryID string `json:"query_id"`
	// Fragment is the exchange node of the cut, subtree included, as
	// JSON (see plan.DecodeFragment).
	Fragment json.RawMessage `json:"fragment"`
	// CatalogVersion guards against executing against a different
	// catalog epoch than the coordinator planned under; a worker whose
	// version differs rejects the dispatch.
	CatalogVersion string `json:"catalog_version,omitempty"`
	// Path is the cut's dotted child-index path in the coordinator's
	// plan, which names the stream in the worker's logs. Producer
	// selects which of the cut's producer subtrees to run.
	Path     string `json:"path"`
	Producer int    `json:"producer"`
	// Attempt numbers the dispatch (1 = first).
	Attempt int `json:"attempt"`
	// Skip is the number of leading records the worker must produce and
	// discard before streaming — the skip-replay resume point.
	Skip int64 `json:"skip"`
	// BatchSize is the batch size the fragment is built and pulled at,
	// 1..core.MaxBatchSize (1 is record-at-a-time), mirroring the
	// coordinator's own build.
	BatchSize int `json:"batch_size"`
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

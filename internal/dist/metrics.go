package dist

import "repro/internal/metrics"

// distMetrics are the coordinator-side volcano_dist_* instrument
// handles. All nil-safe, following the nil-registry convention.
type distMetrics struct {
	workers     *metrics.Gauge   // registered workers
	workersLive *metrics.Gauge   // workers passing heartbeats
	dispatched  *metrics.Counter // volcano_dist_fragments_dispatched_total
	retries     *metrics.Counter // volcano_dist_fragment_retries_total
	failures    *metrics.Counter // volcano_dist_fragment_failures_total
	heartbeatKO *metrics.Counter // volcano_dist_heartbeat_failures_total
	wireRecv    *metrics.Counter // volcano_dist_wire_bytes_total{direction="recv"}
}

func newDistMetrics(r *metrics.Registry) *distMetrics {
	return &distMetrics{
		workers: r.Gauge("volcano_dist_workers",
			"Workers registered with the coordinator."),
		workersLive: r.Gauge("volcano_dist_workers_live",
			"Registered workers currently passing heartbeats."),
		dispatched: r.Counter("volcano_dist_fragments_dispatched_total",
			"Plan fragments dispatched to workers, including retries."),
		retries: r.Counter("volcano_dist_fragment_retries_total",
			"Fragment dispatches that were retries after worker loss."),
		failures: r.Counter("volcano_dist_fragment_failures_total",
			"Fragments that failed permanently (attempt budget exhausted or non-resumable)."),
		heartbeatKO: r.Counter("volcano_dist_heartbeat_failures_total",
			"Worker heartbeat probes that failed."),
		wireRecv: r.Counter("volcano_dist_wire_bytes_total", wireBytesHelp,
			metrics.Label{Key: "direction", Value: "recv"}),
	}
}

// wireBytesHelp is the one help text of volcano_dist_wire_bytes_total:
// every node may both send fragment streams and receive them.
const wireBytesHelp = "Fragment payload bytes on the wire, by direction: sent by this node as a worker, received by it as a coordinator."

// workerMetrics are the volcano_dist_* handles of the fragment half of a
// node, registered on the node's own registry.
type workerMetrics struct {
	accepted *metrics.Counter // volcano_dist_worker_fragments_total{outcome="ok"}
	failed   *metrics.Counter // volcano_dist_worker_fragments_total{outcome="error"}
	rejected *metrics.Counter // volcano_dist_worker_fragments_total{outcome="rejected"}
	wireSent *metrics.Counter // volcano_dist_wire_bytes_total{direction="sent"}
	active   *metrics.Gauge   // volcano_dist_worker_active_fragments
}

func newWorkerMetrics(r *metrics.Registry) *workerMetrics {
	const fam = "volcano_dist_worker_fragments_total"
	const help = "Fragments this worker finished, by outcome."
	return &workerMetrics{
		accepted: r.Counter(fam, help, metrics.Label{Key: "outcome", Value: "ok"}),
		failed:   r.Counter(fam, help, metrics.Label{Key: "outcome", Value: "error"}),
		rejected: r.Counter(fam, help, metrics.Label{Key: "outcome", Value: "rejected"}),
		wireSent: r.Counter("volcano_dist_wire_bytes_total", wireBytesHelp,
			metrics.Label{Key: "direction", Value: "sent"}),
		active: r.Gauge("volcano_dist_worker_active_fragments",
			"Fragments currently executing on this worker."),
	}
}

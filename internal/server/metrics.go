package server

import (
	"sync/atomic"

	"repro/internal/metrics"
)

// serverMetrics are the volcano_server_* instrument handles. Every handle
// is nil-safe (the nil-registry convention of internal/metrics), so a
// server without a registry pays one branch per update and nothing else.
type serverMetrics struct {
	admitted *metrics.Counter // queries that got an execution slot
	queued   *metrics.Counter // queries that had to wait in the admission queue
	canceled *metrics.Counter // queries abandoned mid-stream (disconnect/deadline)

	// rejections by reason; pre-created so the handler never touches the
	// registry lock on the rejection path.
	rejSaturated   *metrics.Counter
	rejDraining    *metrics.Counter
	rejTimeout     *metrics.Counter
	rejParse       *metrics.Counter
	rejPlan        *metrics.Counter
	rejTooParallel *metrics.Counter
	rejDuplicate   *metrics.Counter // query ID collided with an active query

	inFlight  *metrics.Gauge     // queries currently executing
	queueWait *metrics.Histogram // time spent in the admission queue
	querySecs *metrics.Histogram // admission-to-trailer latency of admitted queries
	rowsOut   *metrics.Counter   // result rows streamed to clients

	cacheHits      *metrics.Counter
	cacheMisses    *metrics.Counter
	cacheEvictions *metrics.Counter

	// Lifecycle observability families.
	queriesActive *metrics.Gauge     // queries in the active registry (queued + executing + streaming)
	slowQueries   *metrics.Counter   // queries recorded in the slow-query log
	phasePlan     *metrics.Histogram // volcano_server_query_phase_seconds{phase}
	phaseQueued   *metrics.Histogram
	phaseExecute  *metrics.Histogram
	phaseStream   *metrics.Histogram

	// rows by completed-query outcome; pre-created like the rejections.
	rowsOK       *metrics.Counter
	rowsError    *metrics.Counter
	rowsCanceled *metrics.Counter

	// Cost-based planner families.
	plannerCosted   *metrics.Counter // templates run through the costing pass
	plannerReplans  *metrics.Counter // cache entries re-costed after a gross mis-estimate
	plannerFeedback *metrics.Counter // completed runs whose observed cardinalities were folded back
	plannerHash     *metrics.Counter // choose-plan decisions, by alternative
	plannerMerge    *metrics.Counter

	// Accumulated per-query resource bills, settled once per query in
	// finishQuery and exposed as counter funcs (CPU needs fractional
	// seconds, which an integer Counter cannot carry). Plain atomics so
	// a server without a registry still pays only three adds per query.
	queryCPUNanos atomic.Int64
	queryIOBytes  atomic.Int64
	queryBufFixes atomic.Int64
}

// rowsCounter maps a query outcome to its volcano_server_query_rows_total
// child; unknown outcomes fall back to the nil (no-op) counter.
func (m *serverMetrics) rowsCounter(outcome string) *metrics.Counter {
	switch outcome {
	case "ok":
		return m.rowsOK
	case "error":
		return m.rowsError
	case "canceled":
		return m.rowsCanceled
	}
	return nil
}

// choiceCounter maps a choose-plan alternative label to its counter;
// labels outside the planner's vocabulary fall back to the nil (no-op)
// counter.
func (m *serverMetrics) choiceCounter(alt string) *metrics.Counter {
	switch alt {
	case "hash":
		return m.plannerHash
	case "merge":
		return m.plannerMerge
	}
	return nil
}

// rejectionCounter maps an AdmitError reason to its counter. Unknown
// reasons fall back to a nil (no-op) counter rather than panicking.
func (m *serverMetrics) rejectionCounter(reason string) *metrics.Counter {
	switch reason {
	case "saturated":
		return m.rejSaturated
	case "draining":
		return m.rejDraining
	case "queue_timeout":
		return m.rejTimeout
	case "parse":
		return m.rejParse
	case "plan":
		return m.rejPlan
	case "too_parallel":
		return m.rejTooParallel
	case "duplicate_id":
		return m.rejDuplicate
	}
	return nil
}

func newServerMetrics(r *metrics.Registry) *serverMetrics {
	m := &serverMetrics{}
	if !r.Enabled() {
		return m
	}
	m.admitted = r.Counter("volcano_server_admitted_total",
		"Queries admitted for execution.")
	m.queued = r.Counter("volcano_server_queued_total",
		"Queries that waited in the admission queue before a decision.")
	m.canceled = r.Counter("volcano_server_canceled_total",
		"Admitted queries abandoned before completion (client disconnect or deadline).")
	reject := func(reason string) *metrics.Counter {
		return r.Counter("volcano_server_rejected_total",
			"Queries rejected without execution, by reason.",
			metrics.Label{Key: "reason", Value: reason})
	}
	m.rejSaturated = reject("saturated")
	m.rejDraining = reject("draining")
	m.rejTimeout = reject("queue_timeout")
	m.rejParse = reject("parse")
	m.rejPlan = reject("plan")
	m.rejTooParallel = reject("too_parallel")
	m.rejDuplicate = reject("duplicate_id")
	m.inFlight = r.Gauge("volcano_server_in_flight",
		"Queries currently executing.")
	m.queueWait = r.Histogram("volcano_server_queue_wait_seconds",
		"Time queries spent in the admission queue.", nil)
	m.querySecs = r.Histogram("volcano_server_query_seconds",
		"Latency of admitted queries, admission to trailer.", nil)
	m.rowsOut = r.Counter("volcano_server_rows_total",
		"Result rows streamed to clients.")
	m.cacheHits = r.Counter("volcano_server_plan_cache_hits_total",
		"Plan-cache lookups that reused a compiled template.")
	m.cacheMisses = r.Counter("volcano_server_plan_cache_misses_total",
		"Plan-cache lookups that had to compile.")
	m.cacheEvictions = r.Counter("volcano_server_plan_cache_evictions_total",
		"Templates evicted from the plan cache.")
	m.queriesActive = r.Gauge("volcano_server_queries_active",
		"Queries in the active registry: queued, executing, or streaming.")
	m.slowQueries = r.Counter("volcano_server_slow_queries_total",
		"Queries recorded in the slow-query log (over threshold, errored, or canceled).")
	phase := func(name string) *metrics.Histogram {
		return r.Histogram("volcano_server_query_phase_seconds",
			"Wall time queries spent in each lifecycle phase.", nil,
			metrics.Label{Key: "phase", Value: name})
	}
	m.phasePlan = phase(phasePlan)
	m.phaseQueued = phase(phaseQueued)
	m.phaseExecute = phase(phaseExecute)
	m.phaseStream = phase(phaseStream)
	rows := func(outcome string) *metrics.Counter {
		return r.Counter("volcano_server_query_rows_total",
			"Result rows streamed, by completed-query outcome.",
			metrics.Label{Key: "outcome", Value: outcome})
	}
	m.rowsOK = rows("ok")
	m.rowsError = rows("error")
	m.rowsCanceled = rows("canceled")
	m.plannerCosted = r.Counter("volcano_planner_costed_total",
		"Plan templates run through the cost-based planning pass.")
	m.plannerReplans = r.Counter("volcano_planner_replans_total",
		"Plan-cache entries re-costed after observed cardinalities contradicted the estimates.")
	m.plannerFeedback = r.Counter("volcano_planner_feedback_total",
		"Completed runs whose observed cardinalities were folded back into the plan cache.")
	choice := func(alt string) *metrics.Counter {
		return r.Counter("volcano_planner_choices_total",
			"Choose-plan decisions taken at Open, by chosen alternative.",
			metrics.Label{Key: "alt", Value: alt})
	}
	m.plannerHash = choice("hash")
	m.plannerMerge = choice("merge")
	r.SetCounterFunc("volcano_server_query_cpu_seconds_total",
		"CPU time attributed to completed queries (derived from operator timings).",
		func() float64 { return float64(m.queryCPUNanos.Load()) / 1e9 })
	r.SetCounterFunc("volcano_server_query_io_bytes_total",
		"Device bytes read and written on behalf of completed queries.",
		func() float64 { return float64(m.queryIOBytes.Load()) })
	r.SetCounterFunc("volcano_server_query_buffer_fixes_total",
		"Buffer-pool fix calls attributed to completed queries.",
		func() float64 { return float64(m.queryBufFixes.Load()) })
	return m
}

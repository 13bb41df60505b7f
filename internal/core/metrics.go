package core

import (
	"sync/atomic"

	"repro/internal/metrics"
)

// Process-wide exchange-protocol counters, aggregated across every
// exchange instance in the process. Per-query numbers
// stay with ExchangeStats / EXPLAIN ANALYZE; these are the always-on
// totals a scraper polls while queries run. They are plain atomics so
// the port hot path pays an atomic add per packet (never per record)
// and nothing when idle.
var (
	xmPackets         atomic.Int64 // packets pushed into consumer queues
	xmRecords         atomic.Int64 // records carried by those packets
	xmTokenWaits      atomic.Int64 // flow-control token acquisitions that blocked
	xmProducerStallNs atomic.Int64 // ns producers spent blocked on flow control
	xmConsumerWaitNs  atomic.Int64 // ns consumers spent blocked on empty queues
	xmQueueDepth      atomic.Int64 // packets currently queued across all ports
	xmProducersLive   atomic.Int64 // producer goroutines currently running
	xmPoolHits        atomic.Int64 // packet refills served from a free list
	xmPoolMisses      atomic.Int64 // packet refills that had to allocate
	xmPoolDiscards    atomic.Int64 // drained packets dropped because a free list was full
	xmBatchPulls      atomic.Int64 // batches pulled by exchange producers, added per producer run
	xmBatchRecords    atomic.Int64 // records carried by those producer batch pulls
)

// RegisterMetrics exposes the exchange-protocol counters through a
// metrics registry. Durations become float seconds, the Prometheus
// convention. A nil registry is a no-op.
func RegisterMetrics(r *metrics.Registry) {
	if !r.Enabled() {
		return
	}
	counter := func(name, help string, v *atomic.Int64) {
		r.SetCounterFunc(name, help, func() float64 { return float64(v.Load()) })
	}
	seconds := func(name, help string, v *atomic.Int64) {
		r.SetCounterFunc(name, help, func() float64 { return float64(v.Load()) / 1e9 })
	}
	counter("volcano_exchange_packets_total", "Packets pushed through exchange ports.", &xmPackets)
	counter("volcano_exchange_records_total", "Records carried by exchange packets.", &xmRecords)
	counter("volcano_exchange_token_waits_total", "Flow-control token acquisitions that blocked a producer.", &xmTokenWaits)
	seconds("volcano_exchange_producer_stall_seconds_total", "Time producers spent blocked on the flow-control semaphore.", &xmProducerStallNs)
	seconds("volcano_exchange_consumer_wait_seconds_total", "Time consumers spent blocked waiting for packets.", &xmConsumerWaitNs)
	counter("volcano_exchange_pool_hits_total", "Packet refills served from an exchange free list.", &xmPoolHits)
	counter("volcano_exchange_pool_misses_total", "Packet refills that fell back to a fresh allocation.", &xmPoolMisses)
	counter("volcano_exchange_pool_discards_total", "Drained packets dropped because the bounded free list was full.", &xmPoolDiscards)
	counter("volcano_batch_pulls_total", "Batches pulled by exchange producers running the batch protocol.", &xmBatchPulls)
	counter("volcano_batch_records_total", "Records carried by producer batch pulls.", &xmBatchRecords)
	r.SetGaugeFunc("volcano_exchange_queue_depth", "Packets currently queued across all exchange ports.",
		func() float64 { return float64(xmQueueDepth.Load()) })
	r.SetGaugeFunc("volcano_exchange_producers_live", "Producer goroutines currently running.",
		func() float64 { return float64(xmProducersLive.Load()) })
}

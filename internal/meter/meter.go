// Package meter provides per-query resource accounting. A Meter is a
// bundle of atomic counters attributed to exactly one query: every layer
// the query touches — buffer pool, device I/O, exchange ports, wire
// packets, batch pools, the row stream — adds into the query's meter at
// the same points it already bumps its process-global counters.
//
// The package sits below storage in the dependency order (it imports only
// sync/atomic), so the buffer pool and the file layer can account against
// it without importing core. core re-exports the type as
// core.ResourceMeter.
//
// Every method is nil-safe: a nil *Meter is "accounting disabled" and
// costs one branch, the same convention as the nil tracer and the nil
// histogram. Each event is one or two atomic adds — no locks, no
// allocations — so meters sit directly on the per-record hot path.
package meter

import "sync/atomic"

// Meter accumulates one query's resource usage. All fields are atomic:
// one meter is shared by the query's handler goroutine and every exchange
// producer goroutine its plan spawns.
type Meter struct {
	// Buffer-pool activity attributed to this query's fixes.
	BufFixes  atomic.Int64
	BufHits   atomic.Int64
	BufMisses atomic.Int64

	// Device I/O triggered by this query's buffer misses and write-backs.
	// A write-back of a page dirtied by another query is attributed to
	// the query whose miss triggered the eviction — the cost is paid on
	// its critical path, which is the number an operator debugging a slow
	// query wants.
	DevReads      atomic.Int64
	DevWrites     atomic.Int64
	DevReadBytes  atomic.Int64
	DevWriteBytes atomic.Int64

	// Exchange port traffic (shared-memory packets between producer and
	// consumer goroutines).
	XPackets atomic.Int64
	XRecords atomic.Int64

	// Netexchange wire traffic (record images copied into wire packets).
	WirePackets atomic.Int64
	WireBytes   atomic.Int64

	// Batch-pool memory: live bytes currently allocated to this query's
	// batches, and the high-water mark over the query's lifetime.
	BatchLiveBytes      atomic.Int64
	BatchHighWaterBytes atomic.Int64

	// Rows and bytes streamed to the client.
	RowsStreamed  atomic.Int64
	BytesStreamed atomic.Int64

	// CPU time: operator wall time from OpStats (exclusive per node,
	// producer subtrees included) accumulated at snapshot points.
	CPUNanos atomic.Int64
}

// FixHit records one buffer-pool fix satisfied from the buffer.
func (m *Meter) FixHit() {
	if m == nil {
		return
	}
	m.BufFixes.Add(1)
	m.BufHits.Add(1)
}

// FixMiss records one buffer-pool fix that required a replacement.
func (m *Meter) FixMiss() {
	if m == nil {
		return
	}
	m.BufFixes.Add(1)
	m.BufMisses.Add(1)
}

// DeviceRead records one page read of the given size.
func (m *Meter) DeviceRead(bytes int64) {
	if m == nil {
		return
	}
	m.DevReads.Add(1)
	m.DevReadBytes.Add(bytes)
}

// DeviceWrite records one page write of the given size.
func (m *Meter) DeviceWrite(bytes int64) {
	if m == nil {
		return
	}
	m.DevWrites.Add(1)
	m.DevWriteBytes.Add(bytes)
}

// ExchangePush records one packet of n records crossing an exchange port.
func (m *Meter) ExchangePush(n int) {
	if m == nil {
		return
	}
	m.XPackets.Add(1)
	m.XRecords.Add(int64(n))
}

// WireSend records one netexchange wire packet of the given size.
func (m *Meter) WireSend(bytes int) {
	if m == nil {
		return
	}
	m.WirePackets.Add(1)
	m.WireBytes.Add(int64(bytes))
}

// WireRecv records one netexchange wire packet received on behalf of
// this query. It lands in the same WirePackets/WireBytes counters as
// WireSend: the pair exists so each side of a real wire attributes the
// traffic it actually saw — in a distributed plan the sending worker and
// the receiving coordinator hold different meters, and each bills the
// packets that crossed its own socket. An in-process hub counts each
// packet on exactly one side, never both.
func (m *Meter) WireRecv(bytes int) {
	if m == nil {
		return
	}
	m.WirePackets.Add(1)
	m.WireBytes.Add(int64(bytes))
}

// BatchAlloc records bytes newly allocated to this query's batches and
// advances the high-water mark.
func (m *Meter) BatchAlloc(bytes int64) {
	if m == nil {
		return
	}
	live := m.BatchLiveBytes.Add(bytes)
	for {
		hw := m.BatchHighWaterBytes.Load()
		if live <= hw || m.BatchHighWaterBytes.CompareAndSwap(hw, live) {
			return
		}
	}
}

// BatchFree records bytes released back (batch discarded or pool torn
// down).
func (m *Meter) BatchFree(bytes int64) {
	if m == nil {
		return
	}
	m.BatchLiveBytes.Add(-bytes)
}

// StreamRow records one result row of the given encoded size streamed to
// the client.
func (m *Meter) StreamRow(bytes int) {
	if m == nil {
		return
	}
	m.RowsStreamed.Add(1)
	m.BytesStreamed.Add(int64(bytes))
}

// SetCPUNanos publishes the query's accumulated CPU time. CPU is derived
// from operator timings at snapshot points rather than metered on the hot
// path, so it is stored, not added.
func (m *Meter) SetCPUNanos(ns int64) {
	if m == nil {
		return
	}
	m.CPUNanos.Store(ns)
}

// Snapshot is a plain-value copy of a meter, safe to store, compare and
// marshal. The JSON tags are the wire shape of the trailer `resources`
// block, the /debug/queries drill-down and the slow-query log.
type Snapshot struct {
	CPUSeconds       float64 `json:"cpu_seconds"`
	BufferFixes      int64   `json:"buffer_fixes"`
	BufferHits       int64   `json:"buffer_hits"`
	BufferMisses     int64   `json:"buffer_misses"`
	DeviceReads      int64   `json:"device_reads"`
	DeviceWrites     int64   `json:"device_writes"`
	DeviceReadBytes  int64   `json:"device_read_bytes"`
	DeviceWriteBytes int64   `json:"device_write_bytes"`
	ExchangePackets  int64   `json:"exchange_packets"`
	ExchangeRecords  int64   `json:"exchange_records"`
	WirePackets      int64   `json:"wire_packets"`
	WireBytes        int64   `json:"wire_bytes"`
	BatchHighWater   int64   `json:"batch_pool_high_water_bytes"`
	RowsStreamed     int64   `json:"rows_streamed"`
	BytesStreamed    int64   `json:"bytes_streamed"`
}

// Snapshot reads every counter. Safe at any time, including mid-query —
// the live /debug/queries view snapshots running meters.
func (m *Meter) Snapshot() Snapshot {
	if m == nil {
		return Snapshot{}
	}
	return Snapshot{
		CPUSeconds:       float64(m.CPUNanos.Load()) / 1e9,
		BufferFixes:      m.BufFixes.Load(),
		BufferHits:       m.BufHits.Load(),
		BufferMisses:     m.BufMisses.Load(),
		DeviceReads:      m.DevReads.Load(),
		DeviceWrites:     m.DevWrites.Load(),
		DeviceReadBytes:  m.DevReadBytes.Load(),
		DeviceWriteBytes: m.DevWriteBytes.Load(),
		ExchangePackets:  m.XPackets.Load(),
		ExchangeRecords:  m.XRecords.Load(),
		WirePackets:      m.WirePackets.Load(),
		WireBytes:        m.WireBytes.Load(),
		BatchHighWater:   m.BatchHighWaterBytes.Load(),
		RowsStreamed:     m.RowsStreamed.Load(),
		BytesStreamed:    m.BytesStreamed.Load(),
	}
}

// IOBytes returns total device bytes moved in the snapshot.
func (s Snapshot) IOBytes() int64 { return s.DeviceReadBytes + s.DeviceWriteBytes }

package buffer

import "repro/internal/metrics"

// FrameGauges counts the frames currently pinned and currently dirty,
// under the pool lock. These are instantaneous values (gauges), unlike
// the cumulative Stats counters.
func (p *Pool) FrameGauges() (pinned, dirty int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, f := range p.frames {
		if f.fixCount.Load() > 0 {
			pinned++
		}
		if f.valid && f.dirty {
			dirty++
		}
	}
	return pinned, dirty
}

// RegisterMetrics exposes the pool through a metrics registry. The
// instruments are scrape-time callbacks over the pool's own atomic
// counters, so registration adds nothing to the fix/unfix hot path.
// Registering a second pool on the same registry replaces the first —
// the registry reports the most recently registered pool (the benchmark
// harness builds a fresh pool per pass). A nil registry is a no-op.
func (p *Pool) RegisterMetrics(r *metrics.Registry) {
	if !r.Enabled() {
		return
	}
	counter := func(name, help string, load func() int64) {
		r.SetCounterFunc(name, help, func() float64 { return float64(load()) })
	}
	counter("volcano_buffer_fixes_total", "Pages pinned via Fix/FixNew.", p.fixes)
	counter("volcano_buffer_unfixes_total", "Pins released via Unfix.", p.unfixes)
	counter("volcano_buffer_hits_total", "Fix requests satisfied from the buffer.", p.hits.Load)
	counter("volcano_buffer_misses_total", "Fix requests that required device I/O.", p.misses.Load)
	counter("volcano_buffer_reads_total", "Pages read from devices on buffer misses.", p.reads.Load)
	counter("volcano_buffer_writes_total", "Dirty pages written back to devices.", p.writes.Load)
	counter("volcano_buffer_evictions_total", "Valid pages evicted to make room.", p.evictions.Load)
	counter("volcano_buffer_restarts_total", "Operations restarted after a failed descriptor try-lock.", p.restarts.Load)
	counter("volcano_buffer_extra_pins_total", "Extra pins taken for broadcast record sharing.", p.xtraPins)
	r.SetGaugeFunc("volcano_buffer_frames", "Total frames in the buffer pool.",
		func() float64 { return float64(len(p.frames)) })
	r.SetGaugeFunc("volcano_buffer_pinned_frames", "Frames currently pinned.",
		func() float64 { pinned, _ := p.FrameGauges(); return float64(pinned) })
	r.SetGaugeFunc("volcano_buffer_dirty_frames", "Frames currently holding dirty pages.",
		func() float64 { _, dirty := p.FrameGauges(); return float64(dirty) })
}

package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/storage/buffer"
	"repro/internal/trace"
)

// The record-passing program of §5: create records filled with four
// integers, pass them over a number of exchange boundaries, and unfix
// them at the sink. The paper measures (a) no exchange, (b) three
// exchanges in the mode that creates no new processes, and (c) a pipeline
// of four process groups, with and without flow control; Figure 2a/2b
// vary the packet size on a 3 -> 3 -> 3 -> 1 topology.

// PassConfig parameterises one record-passing run.
type PassConfig struct {
	Records     int
	Stages      int // number of exchange boundaries (0 = direct)
	Inline      bool
	FlowControl bool
	Slack       int
	PacketSize  int
	// Groups is the producer-group size at each boundary for the
	// Figure-2 topology; len(Groups) == Stages. nil = all size 1.
	Groups []int
	// BatchSize is the number of records every pull of the pass moves:
	// generator refills, exchange producer pulls and the sink's drain.
	// Zero is 1 — the paper's program passes records one at a time.
	BatchSize int
	// Analyze instruments the run: the sink is wrapped in a
	// core.Instrumented and every exchange hub's port counters are
	// reported in PassResult.Breakdown. Off by default so the measured
	// path stays untouched.
	Analyze bool
	// Tracer, when set, records the run as structured trace events —
	// every exchange boundary's protocol and the instrumented sink — for
	// Chrome-trace export. nil (the default) keeps the measured path
	// untouched.
	Tracer *trace.Tracer
	// Metrics, when set, exposes the run to a live scraper: the world's
	// buffer pool registers its counters (replacing any previous pass's
	// registration — func collectors have replace semantics). nil (the
	// default) keeps the measured path untouched.
	Metrics *metrics.Registry
}

// PassResult reports one run.
type PassResult struct {
	Cfg       PassConfig
	Elapsed   time.Duration
	Records   int
	Exchanges int
	// PerRecordPerExchange is the derived overhead (only meaningful when
	// compared against a baseline run, as in the paper).
	PerRecord time.Duration
	// Breakdown is the per-operator/per-port report (Analyze only).
	Breakdown string
	// SinkLatency is the sink's Next-latency distribution (Analyze or
	// Tracer only; zero-valued otherwise).
	SinkLatency metrics.HistogramSnapshot
}

// RunPass executes the record-passing program under the given config.
func RunPass(cfg PassConfig) (PassResult, error) {
	if cfg.Records <= 0 {
		return PassResult{}, fmt.Errorf("bench: no records to pass")
	}
	if cfg.BatchSize < 1 {
		cfg.BatchSize = 1
	}
	// Size the pool to the workload: the pass keeps roughly one page per
	// hundred records live (generator temp files plus in-flight packets),
	// so records/40 leaves better than 2x headroom. The floor covers
	// small runs; the cap bounds setup cost at paper scale.
	frames := cfg.Records/80 + 256
	if frames > 4096 {
		frames = 4096
	}
	w, err := NewWorld(frames, 0)
	if err != nil {
		return PassResult{}, err
	}
	defer w.Close()

	if cfg.Metrics.Enabled() {
		w.Pool.RegisterMetrics(cfg.Metrics)
	}
	var hubs []*core.Exchange
	root, err := buildPassTree(w, cfg, &hubs)
	if err != nil {
		return PassResult{}, err
	}
	var sink *core.Instrumented
	if cfg.Analyze || cfg.Tracer.Enabled() {
		sink = core.Instrument(root, "sink").WithTracer(cfg.Tracer)
		root = sink
	}
	poolBase := w.Pool.Stats()

	start := time.Now()
	n, err := core.Drain(root, cfg.BatchSize)
	elapsed := time.Since(start)
	if err != nil {
		return PassResult{}, err
	}
	if n != cfg.Records {
		return PassResult{}, fmt.Errorf("bench: passed %d records, want %d", n, cfg.Records)
	}
	if err := w.CheckBalanced(); err != nil {
		return PassResult{}, err
	}
	res := PassResult{
		Cfg:       cfg,
		Elapsed:   elapsed,
		Records:   n,
		Exchanges: cfg.Stages,
		PerRecord: elapsed / time.Duration(n),
	}
	if sink != nil {
		res.SinkLatency = sink.Stats().Next.Snapshot()
	}
	if cfg.Analyze {
		res.Breakdown = formatBreakdown(sink, hubs, w.Pool.Stats().Sub(poolBase), res.SinkLatency)
	}
	return res, nil
}

// formatBreakdown renders the instrumented run: sink counters with
// latency quantiles, each exchange boundary's port activity (stage 1 is
// closest to the source), and the buffer pool's totals.
func formatBreakdown(sink *core.Instrumented, hubs []*core.Exchange, pool buffer.Stats, lat metrics.HistogramSnapshot) string {
	var sb []string
	st := sink.Stats().Snapshot()
	if lat.Count() > 1 {
		sb = append(sb, fmt.Sprintf("sink: %s p50=%v p95=%v p99=%v", st,
			lat.Quantile(0.50).Round(time.Nanosecond),
			lat.Quantile(0.95).Round(time.Nanosecond),
			lat.Quantile(0.99).Round(time.Nanosecond)))
	} else {
		sb = append(sb, fmt.Sprintf("sink: %s", st))
	}
	for i, x := range hubs {
		xs := x.Stats()
		sb = append(sb, fmt.Sprintf("exchange stage %d: packets=%d records=%d forks=%d stall=%v wait=%v",
			i+1, xs.Packets, xs.Records, xs.Forks,
			xs.ProducerStall.Round(time.Microsecond), xs.ConsumerWait.Round(time.Microsecond)))
	}
	sb = append(sb, fmt.Sprintf("buffer: fixes=%d hits=%d misses=%d", pool.Fixes, pool.Hits, pool.Misses))
	return strings.Join(sb, "\n")
}

// buildPassTree assembles generators and exchange stages per the config,
// appending every exchange hub it creates to *hubs (source side first).
func buildPassTree(w *World, cfg PassConfig, hubs *[]*core.Exchange) (core.Iterator, error) {
	groups := cfg.Groups
	if groups == nil {
		groups = make([]int, cfg.Stages)
		for i := range groups {
			groups[i] = 1
		}
	}
	if len(groups) != cfg.Stages {
		return nil, fmt.Errorf("bench: %d group sizes for %d stages", len(groups), cfg.Stages)
	}

	// makeLevel returns a factory producing the subtree feeding stage i
	// for a given member g of that stage's producer group.
	var makeLevel func(stage int) func(g int) (core.Iterator, error)
	makeLevel = func(stage int) func(g int) (core.Iterator, error) {
		if stage == 0 {
			// Source level: the generator group of size groups[0] (or a
			// single generator when there are no exchanges).
			src := 1
			if cfg.Stages > 0 {
				src = groups[0]
			}
			per := cfg.Records / src
			extra := cfg.Records % src
			return func(g int) (core.Iterator, error) {
				n := per
				if g < extra {
					n++
				}
				return NewGen(w.Env, n, int64(g)*1_000_000), nil
			}
		}
		lower := makeLevel(stage - 1)
		producers := groups[stage-1]
		consumers := 1
		if stage < cfg.Stages {
			consumers = groups[stage]
		}
		x, err := core.NewExchange(core.ExchangeConfig{
			Schema:      GenSchema,
			Producers:   producers,
			Consumers:   consumers,
			PacketSize:  cfg.PacketSize,
			FlowControl: cfg.FlowControl,
			Slack:       cfg.Slack,
			Inline:      cfg.Inline,
			Tracer:      cfg.Tracer,
			BatchSize:   cfg.BatchSize,
			NewProducer: func(g int) (core.Iterator, error) { return lower(g) },
		})
		if err != nil {
			return func(int) (core.Iterator, error) { return nil, err }
		}
		*hubs = append(*hubs, x)
		return func(g int) (core.Iterator, error) {
			return x.Consumer(g), nil
		}
	}

	if cfg.Stages == 0 {
		return makeLevel(0)(0)
	}
	if cfg.Inline {
		// Inline boundaries must have equal group sizes; the record-pass
		// pipeline uses degree-1 groups (three extra "procedure calls").
		for _, g := range groups {
			if g != 1 {
				return nil, fmt.Errorf("bench: inline pass needs degree-1 groups")
			}
		}
	}
	return makeLevel(cfg.Stages)(0)
}

// Paper values for the §5 in-text experiment (seconds, Sequent Symmetry,
// twelve 16 MHz 80386 CPUs).
const (
	PaperNoExchangeSec     = 20.28
	PaperInlineSec         = 28.00
	PaperPipelineFlowSec   = 16.21
	PaperPipelineNoFlowSec = 16.16
	PaperPerRecordUsec     = 25.73
	PaperRecords           = 100_000
)

// Fig2aPacketSizes are the packet sizes the paper sweeps.
var Fig2aPacketSizes = []int{1, 2, 5, 10, 20, 50, 83}

// Fig2aPaperSeconds are the elapsed times the paper reports (seconds) for
// the sizes it states explicitly; 0 where the text gives no number.
var Fig2aPaperSeconds = map[int]float64{
	1: 171, 2: 94, 50: 15.0, 83: 13.7,
}

// RunFig2aPoint runs one Figure-2a sweep point: 100,000 records from a
// producer group of three through two intermediate groups of three to a
// single consumer, flow control with three slack packets, every pull
// moving batchSize records (1 is the paper's record-at-a-time).
func RunFig2aPoint(records, packetSize, batchSize int) (PassResult, error) {
	return RunPass(PassConfig{
		Records:     records,
		Stages:      3,
		Groups:      []int{3, 3, 3},
		FlowControl: true,
		Slack:       3,
		PacketSize:  packetSize,
		BatchSize:   batchSize,
	})
}

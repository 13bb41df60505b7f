// Package repro's root benchmarks regenerate every table and figure of
// the paper's evaluation (§5) as testing.B targets; cmd/volcano-bench
// produces the same numbers as formatted reports. See DESIGN.md for the
// experiment index and EXPERIMENTS.md for recorded results.
package repro_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/bench"
)

// benchRecords keeps individual b.N iterations fast; volcano-bench runs
// the paper-scale 100,000-record configuration.
const benchRecords = 20000

func reportPass(b *testing.B, res bench.PassResult) {
	b.ReportMetric(float64(res.Elapsed.Nanoseconds())/float64(res.Records), "ns/record")
}

// BenchmarkT1_NoExchange is §5 configuration (a): create records, unfix
// them, no exchange operator.
func BenchmarkT1_NoExchange(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunPass(bench.PassConfig{Records: benchRecords, Stages: 0})
		if err != nil {
			b.Fatal(err)
		}
		reportPass(b, res)
	}
}

// BenchmarkT1_InlineExchanges is configuration (b): three exchange
// operators in the mode that creates no new processes — three extra
// procedure calls per record; the paper derives 25.73 µs/record/exchange.
func BenchmarkT1_InlineExchanges(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunPass(bench.PassConfig{Records: benchRecords, Stages: 3, Inline: true})
		if err != nil {
			b.Fatal(err)
		}
		reportPass(b, res)
	}
}

// BenchmarkT1_PipelineFlowControl is configuration (c): a pipeline of
// four process groups, flow control enabled.
func BenchmarkT1_PipelineFlowControl(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunPass(bench.PassConfig{
			Records: benchRecords, Stages: 3, FlowControl: true, Slack: 4,
		})
		if err != nil {
			b.Fatal(err)
		}
		reportPass(b, res)
	}
}

// BenchmarkT1_PipelineNoFlowControl is configuration (c) without flow
// control (paper: 16.16 s vs 16.21 s).
func BenchmarkT1_PipelineNoFlowControl(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunPass(bench.PassConfig{Records: benchRecords, Stages: 3})
		if err != nil {
			b.Fatal(err)
		}
		reportPass(b, res)
	}
}

// BenchmarkExchangeE2EPlanBatch is the end-to-end plan benchmark of the
// committed BENCH_6.json baseline: the full Figure-2 topology (3→3→3→1,
// three exchange boundaries, flow control, the standard 83-record
// packets) from record creation to the sink, with generators, exchange
// producers and the sink all moving batches of 83 records. allocs/op
// here watches the whole plan, so a per-record allocation regression
// anywhere in the exchange path moves it by tens of thousands.
func BenchmarkExchangeE2EPlanBatch(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig2aPoint(benchRecords, 83, 83)
		if err != nil {
			b.Fatal(err)
		}
		reportPass(b, res)
	}
}

// BenchmarkFig2a sweeps the packet size on the 3→3→3→1 topology with
// three slack packets, record-at-a-time, reproducing Figure 2a (and, on
// a log-log scale, Figure 2b).
func BenchmarkFig2a(b *testing.B) {
	for _, ps := range bench.Fig2aPacketSizes {
		b.Run(fmt.Sprintf("packet=%d", ps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := bench.RunFig2aPoint(benchRecords, ps, 1)
				if err != nil {
					b.Fatal(err)
				}
				reportPass(b, res)
			}
		})
	}
}

// runAblation benches one ablation configuration table; each iteration
// re-runs the whole comparison so relative numbers stay meaningful.
func runAblation(b *testing.B, f func() (*bench.Ablation, error)) {
	b.Helper()
	var last *bench.Ablation
	for i := 0; i < b.N; i++ {
		a, err := f()
		if err != nil {
			b.Fatal(err)
		}
		last = a
	}
	for _, l := range last.Lines {
		b.ReportMetric(float64(l.Elapsed.Microseconds()), "µs:"+sanitize(l.Name))
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		case r == ' ':
			out = append(out, '_')
		}
	}
	if len(out) > 24 {
		out = out[:24]
	}
	return string(out)
}

func BenchmarkAblationFlowControl(b *testing.B) {
	runAblation(b, func() (*bench.Ablation, error) { return bench.AblationFlowControl(benchRecords / 2) })
}

func BenchmarkAblationForkScheme(b *testing.B) {
	runAblation(b, func() (*bench.Ablation, error) { return bench.AblationForkScheme(8, time.Millisecond) })
}

func BenchmarkAblationInlineExchange(b *testing.B) {
	runAblation(b, func() (*bench.Ablation, error) { return bench.AblationInline(benchRecords / 2) })
}

func BenchmarkAblationPartitioning(b *testing.B) {
	runAblation(b, func() (*bench.Ablation, error) { return bench.AblationPartitioning(benchRecords / 2) })
}

func BenchmarkAblationBroadcast(b *testing.B) {
	runAblation(b, func() (*bench.Ablation, error) { return bench.AblationBroadcast(benchRecords / 4) })
}

func BenchmarkAblationMatchAlgorithms(b *testing.B) {
	runAblation(b, func() (*bench.Ablation, error) { return bench.AblationMatch(5000) })
}

func BenchmarkAblationDivision(b *testing.B) {
	runAblation(b, func() (*bench.Ablation, error) { return bench.AblationDivision(500, 12, 3) })
}

func BenchmarkAblationSupportFunctions(b *testing.B) {
	runAblation(b, func() (*bench.Ablation, error) { return bench.AblationSupportFunctions(benchRecords) })
}

func BenchmarkAblationBufferLocking(b *testing.B) {
	runAblation(b, func() (*bench.Ablation, error) { return bench.AblationBufferLocking(benchRecords/2, 4) })
}

func BenchmarkParallelSort(b *testing.B) {
	runAblation(b, func() (*bench.Ablation, error) { return bench.AblationParallelSort(benchRecords, 4) })
}

func BenchmarkAblationSharedNothing(b *testing.B) {
	runAblation(b, func() (*bench.Ablation, error) {
		return bench.AblationSharedNothing(benchRecords/2, 200*time.Microsecond)
	})
}

func BenchmarkAblationRunGeneration(b *testing.B) {
	runAblation(b, func() (*bench.Ablation, error) {
		return bench.AblationRunGeneration(benchRecords, 512)
	})
}

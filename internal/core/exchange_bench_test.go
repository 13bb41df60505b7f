package core

import (
	"fmt"
	"testing"

	"repro/internal/record"
)

// countedSource hands out the same frameless record n times with zero
// allocations, so the benchmarks below measure the exchange protocol —
// packet refill, port push/pop, flow control, recycling — and not a data
// source or the buffer manager.
type countedSource struct {
	rec  Rec
	n    int
	left int
}

func (s *countedSource) Schema() *record.Schema { return intSchema }
func (s *countedSource) Open() error            { s.left = s.n; return nil }
func (s *countedSource) NextBatch(b *Batch) error {
	b.Reset()
	for ; !b.Full() && s.left > 0; s.left-- {
		b.Append(s.rec)
	}
	return nil
}
func (s *countedSource) Close() error { return nil }

// benchRecordsPerProducer keeps one b.N iteration around a millisecond.
const benchRecordsPerProducer = 10000

// BenchmarkExchangeThroughput drives one full exchange per iteration:
// `producers` goroutines each push benchRecordsPerProducer records
// through a flow-controlled port to a single draining consumer. allocs/op
// is part of the committed baseline: with packet recycling it stays flat
// in the number of records (setup-only), which the BENCH_5.json gate in
// CI enforces.
func BenchmarkExchangeThroughput(b *testing.B) {
	for _, producers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("producers=%d", producers), func(b *testing.B) {
			rec := staticIntRec()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x, err := NewExchange(ExchangeConfig{
					Schema:      intSchema,
					Producers:   producers,
					Consumers:   1,
					PacketSize:  83,
					FlowControl: true,
					Slack:       4,
					NewProducer: func(g int) (Iterator, error) {
						return &countedSource{rec: rec, n: benchRecordsPerProducer}, nil
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				n, err := Drain(x.Consumer(0), 0)
				if err != nil {
					b.Fatal(err)
				}
				if n != producers*benchRecordsPerProducer {
					b.Fatalf("drained %d records", n)
				}
			}
			b.StopTimer()
			recs := float64(producers * benchRecordsPerProducer)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*recs), "ns/record")
		})
	}
}

// BenchmarkNetExchangeThroughput is the shared-nothing variant: two
// producers copy record images into wire packets that a consumer on a
// different "machine" materialises into its own buffer pool. The wire
// packets recycle through the netPacketPool, so allocs/op stays flat in
// the record count here too.
func BenchmarkNetExchangeThroughput(b *testing.B) {
	dst := newTestEnv(b, 1024)
	rec := staticIntRec()
	const producers = 2
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, err := NewNetExchange(NetExchangeConfig{
			Schema:     intSchema,
			Producers:  producers,
			Consumers:  1,
			PacketSize: 83,
			NewProducer: func(g int) (Iterator, error) {
				return &countedSource{rec: rec, n: benchRecordsPerProducer}, nil
			},
			ConsumerEnv: func(int) *Env { return dst.Env },
		})
		if err != nil {
			b.Fatal(err)
		}
		n, err := Drain(x.Consumer(0), 0)
		if err != nil {
			b.Fatal(err)
		}
		if n != producers*benchRecordsPerProducer {
			b.Fatalf("drained %d records", n)
		}
	}
	b.StopTimer()
	recs := float64(producers * benchRecordsPerProducer)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*recs), "ns/record")
}

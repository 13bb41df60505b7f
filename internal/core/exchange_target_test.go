package core

import (
	"fmt"
	"testing"

	"repro/internal/storage/file"
)

// TestExchangeEndpointsHonorBatchTarget holds every exchange endpoint —
// fork-mode consumer, inline member, per-producer stream — to the
// protocol's bound: one NextBatch call delivers at most the batch's
// Target records. Batch size 1 is therefore record-at-a-time
// above an exchange as well, a packet larger than the caller's batch is
// served across calls, and a packet that fits is still handed over whole.
// Closing an endpoint in the middle of a packet releases what it holds.
func TestExchangeEndpointsHonorBatchTarget(t *testing.T) {
	const n, packet = 500, 50
	// open builds one endpoint over f.
	endpoints := []struct {
		name string
		open func(t *testing.T, f *file.File) Iterator
	}{
		{"fork", func(t *testing.T, f *file.File) Iterator {
			x, err := NewExchange(ExchangeConfig{
				Schema: intSchema, Producers: 1, Consumers: 1, PacketSize: packet,
				NewProducer: func(int) (Iterator, error) { return NewFileScan(f) },
			})
			if err != nil {
				t.Fatal(err)
			}
			return x.Consumer(0)
		}},
		{"inline", func(t *testing.T, f *file.File) Iterator {
			x, err := NewExchange(ExchangeConfig{
				Schema: intSchema, Producers: 1, Consumers: 1, PacketSize: packet, Inline: true,
				NewProducer: func(int) (Iterator, error) { return NewFileScan(f) },
			})
			if err != nil {
				t.Fatal(err)
			}
			return x.Consumer(0)
		}},
		{"stream", func(t *testing.T, f *file.File) Iterator {
			x, err := NewExchange(ExchangeConfig{
				Schema: intSchema, Producers: 1, Consumers: 1, PacketSize: packet, KeepStreams: true,
				NewProducer: func(int) (Iterator, error) { return NewFileScan(f) },
			})
			if err != nil {
				t.Fatal(err)
			}
			streams, err := x.ConsumerStreams(0)
			if err != nil {
				t.Fatal(err)
			}
			return streams[0]
		}},
	}
	for _, ep := range endpoints {
		for _, target := range []int{1, 7, packet, 83} {
			t.Run(fmt.Sprintf("%s/target=%d", ep.name, target), func(t *testing.T) {
				env := newTestEnv(t, 256)
				f := env.makeInts(t, "t", shuffled(n, 44)...)
				it := ep.open(t, f)
				if err := it.Open(); err != nil {
					t.Fatal(err)
				}
				b := NewBatch(target)
				got, calls := 0, 0
				for {
					if err := it.NextBatch(b); err != nil {
						t.Fatal(err)
					}
					if b.Len() == 0 {
						break
					}
					if b.Len() > target {
						t.Fatalf("call %d delivered %d records to a batch of %d", calls, b.Len(), target)
					}
					got += b.Len()
					calls++
					b.Release()
				}
				if err := it.Close(); err != nil {
					t.Fatal(err)
				}
				if got != n {
					t.Fatalf("got %d records, want %d", got, n)
				}
				// A packet that fits the batch goes over whole: one call per
				// packet. A smaller batch needs ceil(packet/target) calls.
				per := 1
				if target < packet {
					per = (packet + target - 1) / target
				}
				if want := n / packet * per; calls != want {
					t.Fatalf("%d calls, want %d", calls, want)
				}
				env.checkNoPinLeak(t)
			})
		}
		t.Run(ep.name+"/close-mid-packet", func(t *testing.T) {
			env := newTestEnv(t, 256)
			f := env.makeInts(t, "t", shuffled(n, 45)...)
			it := ep.open(t, f)
			if err := it.Open(); err != nil {
				t.Fatal(err)
			}
			b := NewBatch(1)
			for i := 0; i < 3; i++ {
				if err := it.NextBatch(b); err != nil {
					t.Fatal(err)
				}
				if b.Len() != 1 {
					t.Fatalf("call %d delivered %d records, want 1", i, b.Len())
				}
				b.Release()
			}
			if err := it.Close(); err != nil {
				t.Fatal(err)
			}
			env.checkNoPinLeak(t)
		})
	}
}

package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/record"
)

// staticSource is an endless iterator that hands out the same pinned-free
// record forever: Data points at a process-lifetime byte slice and there
// is no frame, so Unfix is a no-op. NextBatch performs zero allocations, which
// makes the source suitable for AllocsPerRun measurements of the exchange
// itself — any allocation the harness observes belongs to the exchange
// hot path, not to the data source.
type staticSource struct {
	rec Rec
}

func (s *staticSource) Schema() *record.Schema { return intSchema }
func (s *staticSource) Open() error            { return nil }
func (s *staticSource) NextBatch(b *Batch) error {
	b.Reset()
	for !b.Full() {
		b.Append(s.rec)
	}
	return nil
}
func (s *staticSource) Close() error { return nil }

func staticIntRec() Rec {
	return Rec{Data: intSchema.MustEncode(record.Int(7))}
}

// TestExchangePacketRecycling proves the free list actually carries the
// steady state: after a run long enough to warm the pool, refills are
// dominated by hits, and the get/push pairing is exact — every packet
// pushed through the port was obtained from the pool exactly once, so
// hits+misses equals the packet count.
func TestExchangePacketRecycling(t *testing.T) {
	env := newTestEnv(t, 1024)
	const n = 20000
	f := env.makeInts(t, "t", shuffled(n, 21)...)
	x, err := NewExchange(ExchangeConfig{
		Schema:      intSchema,
		Producers:   2,
		Consumers:   1,
		PacketSize:  10,
		FlowControl: true,
		Slack:       4,
		NewProducer: func(g int) (Iterator, error) { return NewFileScan(f, nil, false) },
	})
	if err != nil {
		t.Fatal(err)
	}
	count, err := Drain(x.Consumer(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if count != 2*n {
		t.Fatalf("count = %d, want %d", count, 2*n)
	}
	st := x.Stats()
	if st.PoolHits == 0 {
		t.Fatal("pool recorded no hits: packets are not being recycled")
	}
	if got := st.PoolHits + st.PoolMisses; got != st.Packets {
		t.Fatalf("pool gets (%d hits + %d misses = %d) != packets pushed (%d): a push or a get escaped the pairing",
			st.PoolHits, st.PoolMisses, got, st.Packets)
	}
	// The warmed-up steady state must be hit-dominated: misses are the
	// cold start plus the rare window overrun, never a steady trickle.
	if st.PoolMisses*4 > st.Packets {
		t.Fatalf("pool misses %d of %d packets: free list is not retaining packets", st.PoolMisses, st.Packets)
	}
	env.checkNoPinLeak(t)
}

// TestNetExchangePacketRecycling is the same invariant for the wire-packet
// free list of the shared-nothing exchange.
func TestNetExchangePacketRecycling(t *testing.T) {
	src := newTestEnv(t, 512)
	dst := newTestEnv(t, 512)
	const n = 8000
	f := src.makeInts(t, "t", shuffled(n, 22)...)
	x, err := NewNetExchange(NetExchangeConfig{
		Schema:      intSchema,
		Producers:   2,
		Consumers:   1,
		PacketSize:  10,
		NewProducer: func(g int) (Iterator, error) { return NewFileScan(f, nil, false) },
		ConsumerEnv: func(int) *Env { return dst.Env },
	})
	if err != nil {
		t.Fatal(err)
	}
	count, err := Drain(x.Consumer(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if count != 2*n {
		t.Fatalf("count = %d, want %d", count, 2*n)
	}
	st := x.NetStats()
	if st.PoolHits == 0 {
		t.Fatal("net pool recorded no hits: wire packets are not being recycled")
	}
	if got := st.PoolHits + st.PoolMisses; got != st.Packets {
		t.Fatalf("net pool gets (%d hits + %d misses = %d) != packets sent (%d)",
			st.PoolHits, st.PoolMisses, got, st.Packets)
	}
	if st.PoolMisses*4 > st.Packets {
		t.Fatalf("net pool misses %d of %d packets", st.PoolMisses, st.Packets)
	}
	src.checkNoPinLeak(t)
	dst.checkNoPinLeak(t)
}

// TestPacketRefillZeroAlloc measures the port-level packet cycle in
// isolation: get a packet from the pool, refill it to the packet size,
// push it through a flow-controlled queue, pop it, return it. After the
// warm-up run the cycle must not allocate at all — the packet, its recs
// backing array, the queue FIFO's backing array and the flow-control
// token all come from reused storage.
func TestPacketRefillZeroAlloc(t *testing.T) {
	const packetSize = 8
	pool := newPacketPool(1, 1, 4, packetSize)
	q := newQueue(1, false, true, 4, &portStats{}, pool)
	rec := staticIntRec()
	avg := testing.AllocsPerRun(1000, func() {
		p := pool.get(0)
		for i := 0; i < packetSize; i++ {
			p.recs = append(p.recs, rec)
		}
		q.push(p, nil)
		got := q.pop(1, nil)
		if got == nil {
			t.Fatal("pop returned nil")
		}
		pool.put(got)
	})
	if avg != 0 {
		t.Fatalf("packet refill cycle allocates %.2f objects per packet, want 0", avg)
	}
}

// TestExchangeConsumerNextZeroAlloc is the end-to-end allocation guard
// for record-at-a-time consumption: with a zero-alloc source, a running
// producer goroutine and a warmed packet pool, pulling the consumer one
// record at a time through a cursor must settle into zero amortised
// allocations per record. AllocsPerRun counts
// process-global mallocs, so the producer side of the port (outbox
// refill, push, flow control) is inside the measurement too.
func TestExchangeConsumerNextZeroAlloc(t *testing.T) {
	done := make(chan struct{})
	x, err := NewExchange(ExchangeConfig{
		Schema:      intSchema,
		Producers:   1,
		Consumers:   1,
		PacketSize:  83,
		FlowControl: true,
		Slack:       4,
		Done:        done,
		NewProducer: func(g int) (Iterator, error) { return &staticSource{rec: staticIntRec()}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	c := x.Consumer(0)
	if err := c.Open(); err != nil {
		t.Fatal(err)
	}
	cur := NewCursor(c, 1)
	next := func() {
		r, ok, err := cur.Pull()
		if err != nil || !ok {
			t.Fatalf("next: ok=%v err=%v", ok, err)
		}
		r.Unfix()
	}
	// Warm the pool and let producer and consumer reach steady state.
	for i := 0; i < 20000; i++ {
		next()
	}
	const perRun = 8300 // 100 packets per measured run
	avg := testing.AllocsPerRun(20, func() {
		for i := 0; i < perRun; i++ {
			next()
		}
	})
	if perRecord := avg / perRun; perRecord > 0.01 {
		t.Fatalf("consumer pull allocates %.4f objects per record (%.1f per run), want 0 amortised", perRecord, avg)
	}
	// The source never ends: cancel, drain to the tagged final packet,
	// and run the ordinary shutdown handshake.
	close(done)
	for {
		r, ok, err := cur.Pull()
		if err != nil || !ok {
			break
		}
		r.Unfix()
	}
	cur.Release()
	if err := c.Close(); err != nil && !errors.Is(err, ErrCanceled) {
		t.Fatalf("close: %v", err)
	}
}

// TestExchangeRecycleShutdownStress hammers the racy corner of the
// recycling protocol under the race detector: one consumer closes early
// while producers are mid-flush, so packets simultaneously travel
// producer→queue, queue→drain→pool, and closed-queue-push→pool while the
// surviving consumer keeps popping and recycling. Run with -race this
// proves the snapshot-before-publish discipline in queue.push and the
// exclusive-owner rule for pool.put.
func TestExchangeRecycleShutdownStress(t *testing.T) {
	env := newTestEnv(t, 2048)
	const n = 2000
	f := env.makeInts(t, "t", shuffled(n, 23)...)
	iters := 30
	if testing.Short() {
		iters = 5
	}
	for iter := 0; iter < iters; iter++ {
		x, err := NewExchange(ExchangeConfig{
			Schema:      intSchema,
			Producers:   4,
			Consumers:   2,
			PacketSize:  3,
			FlowControl: true,
			Slack:       1,
			NewProducer: func(g int) (Iterator, error) { return NewFileScan(f, nil, false) },
		})
		if err != nil {
			t.Fatal(err)
		}
		errs := make(chan error, 2)
		var wg sync.WaitGroup
		for ci := 0; ci < 2; ci++ {
			wg.Add(1)
			go func(ci, iter int) {
				defer wg.Done()
				c := x.Consumer(ci)
				if err := c.Open(); err != nil {
					errs <- err
					return
				}
				// Consumer 0 walks away mid-stream at a varying point;
				// consumer 1 drains everything routed to it.
				limit := -1
				if ci == 0 {
					limit = 5 * (iter%7 + 1)
				}
				got := 0
				cur := NewCursor(c, 1)
				for limit < 0 || got < limit {
					r, ok, err := cur.Pull()
					if err != nil {
						errs <- err
						return
					}
					if !ok {
						break
					}
					r.Unfix()
					got++
				}
				cur.Release()
				errs <- c.Close()
			}(ci, iter)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			t.Fatalf("iter %d: shutdown hung", iter)
		}
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatalf("iter %d: %v", iter, err)
			}
		}
		env.checkNoPinLeak(t)
	}
}

// TestExchangeStatsMatchMetricsOnShutdownPaths is the accounting
// reconciliation regression test: on every exit path — cancellation of
// endless producers, and an early consumer Close that bounces remaining
// producer pushes off a closed queue — the per-exchange counters, the
// process-wide metrics counters and the queue-depth gauge must agree.
// The exchange tests never run in parallel, so counter deltas observed
// around one hub belong to that hub.
func TestExchangeStatsMatchMetricsOnShutdownPaths(t *testing.T) {
	env := newTestEnv(t, 1024)
	f := env.makeInts(t, "t", shuffled(1000, 24)...)

	check := func(t *testing.T, mk func() (*Exchange, func())) {
		t.Helper()
		basePackets := xmPackets.Load()
		baseRecords := xmRecords.Load()
		baseDepth := xmQueueDepth.Load()
		x, run := mk()
		run()
		st := x.Stats()
		if d := xmPackets.Load() - basePackets; d != st.Packets {
			t.Fatalf("metrics saw %d packets, ExchangeStats %d", d, st.Packets)
		}
		if d := xmRecords.Load() - baseRecords; d != st.Records {
			t.Fatalf("metrics saw %d records, ExchangeStats %d", d, st.Records)
		}
		if d := xmQueueDepth.Load(); d != baseDepth {
			t.Fatalf("queue depth gauge leaked: %d before, %d after teardown", baseDepth, d)
		}
		if got := st.PoolHits + st.PoolMisses; got != st.Packets {
			t.Fatalf("pool gets %d != packets %d", got, st.Packets)
		}
	}

	t.Run("cancel", func(t *testing.T) {
		check(t, func() (*Exchange, func()) {
			done := make(chan struct{})
			x, err := NewExchange(ExchangeConfig{
				Schema:      intSchema,
				Producers:   4,
				Consumers:   1,
				PacketSize:  3,
				FlowControl: true,
				Slack:       1,
				Done:        done,
				NewProducer: func(g int) (Iterator, error) {
					mk := func() (Iterator, error) { return NewFileScan(f, nil, false) }
					sc, err := mk()
					if err != nil {
						return nil, err
					}
					return &loopScan{newScan: mk, cur: sc}, nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			return x, func() {
				c := x.Consumer(0)
				if err := c.Open(); err != nil {
					t.Fatal(err)
				}
				cur := NewCursor(c, 1)
				for i := 0; i < 25; i++ {
					r, ok, err := cur.Pull()
					if err != nil || !ok {
						t.Fatalf("next %d: ok=%v err=%v", i, ok, err)
					}
					r.Unfix()
				}
				cur.Release()
				close(done)
				if err := c.Close(); err != nil && !errors.Is(err, ErrCanceled) {
					t.Fatalf("close: %v", err)
				}
				env.checkNoPinLeak(t)
			}
		})
	})

	t.Run("early-close", func(t *testing.T) {
		check(t, func() (*Exchange, func()) {
			x, err := NewExchange(ExchangeConfig{
				Schema:      intSchema,
				Producers:   4,
				Consumers:   1,
				PacketSize:  3,
				FlowControl: true,
				Slack:       1,
				NewProducer: func(g int) (Iterator, error) { return NewFileScan(f, nil, false) },
			})
			if err != nil {
				t.Fatal(err)
			}
			return x, func() {
				c := x.Consumer(0)
				if err := c.Open(); err != nil {
					t.Fatal(err)
				}
				cur := NewCursor(c, 1)
				for i := 0; i < 10; i++ {
					r, ok, err := cur.Pull()
					if err != nil || !ok {
						t.Fatalf("next %d: ok=%v err=%v", i, ok, err)
					}
					r.Unfix()
				}
				cur.Release()
				// Close with thousands of records unread: the drain closes
				// the queue and the remaining producer pushes take the
				// closed-queue path — which must still count.
				if err := c.Close(); err != nil {
					t.Fatalf("close: %v", err)
				}
				env.checkNoPinLeak(t)
			}
		})
	})
}

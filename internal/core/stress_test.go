package core

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/record"
)

// TestExchangeStressParallelSchedulers forces several scheduler threads
// (even on a single CPU) and runs a deep exchange topology with flow
// control, partitioning and small packets many times — shaking out races
// in the port, the shutdown handshake, and the buffer's two-level locking.
func TestExchangeStressParallelSchedulers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for round := 0; round < 5; round++ {
		env := newTestEnv(t, 2048)
		const n = 3000
		files := env.makePartitionedInts(t, "p", n, 4)

		// 4 scanners -> 3 middle groups (filter) -> 1 consumer.
		lower, err := NewExchange(ExchangeConfig{
			Schema:      intSchema,
			Producers:   4,
			Consumers:   3,
			PacketSize:  3,
			FlowControl: true,
			Slack:       2,
			NewPartition: func(int) expr.Partitioner {
				return expr.HashPartition(intSchema, record.Key{0}, 3)
			},
			NewProducer: func(g int) (Iterator, error) {
				return NewFileScan(files[g], nil, false)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		upper, err := NewExchange(ExchangeConfig{
			Schema:      intSchema,
			Producers:   3,
			Consumers:   1,
			PacketSize:  5,
			FlowControl: true,
			Slack:       3,
			NewProducer: func(g int) (Iterator, error) {
				return NewFilterExpr(env.Env, lower.Consumer(g), "v >= 0", expr.Compiled)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		count, err := Drain(upper.Consumer(0), 0)
		if err != nil {
			t.Fatal(err)
		}
		if count != n {
			t.Fatalf("round %d: %d records, want %d", round, count, n)
		}
		env.checkNoPinLeak(t)
	}
}

// TestBufferContentionUnderParallelSchedulers drives many goroutines
// through a small pool so eviction, restart and write-back paths all
// contend — asserting only invariants (pins balanced, data intact).
func TestBufferContentionUnderParallelSchedulers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	env := newTestEnv(t, 16) // deliberately tiny pool
	const workers = 6
	files := env.makePartitionedInts(t, "p", 1200, workers)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				sc, err := NewFileScan(files[w], nil, false)
				if err != nil {
					errs[w] = err
					return
				}
				n, err := Drain(sc, 0)
				if err != nil {
					errs[w] = err
					return
				}
				if n != 200 {
					errs[w] = errState("stress", "lost records")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	env.checkNoPinLeak(t)
}

// TestExchangeShutdownAbandonStress hammers the shutdown handshake: a
// consumer abandons mid-stream while many producers are blocked on
// flow-control tokens and the port. Close returning at all proves no
// producer is stuck waiting for allowClose; the goroutine count
// returning to its baseline proves the drain released every producer
// and none leaked. Run under -race this also exercises the handshake's
// memory ordering.
func TestExchangeShutdownAbandonStress(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	env := newTestEnv(t, 2048)
	f := env.makeInts(t, "t", shuffled(2000, 7)...)
	before := runtime.NumGoroutine()
	for round := 0; round < 20; round++ {
		x, err := NewExchange(ExchangeConfig{
			Schema:      intSchema,
			Producers:   8,
			Consumers:   1,
			PacketSize:  2,
			FlowControl: true,
			Slack:       1, // minimal slack: producers block almost immediately
			NewProducer: func(g int) (Iterator, error) {
				return NewFileScan(f, nil, false)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		c := x.Consumer(0)
		if err := c.Open(); err != nil {
			t.Fatal(err)
		}
		// Read a handful of rows so every producer is up and most are
		// parked on a flow-control token, then walk away.
		cur := NewCursor(c, 1)
		for i := 0; i < 3+round%5; i++ {
			r, ok, err := cur.Pull()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			r.Unfix()
		}
		cur.Release()
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		env.checkNoPinLeak(t)
	}
	// Producers exit asynchronously after Close returns; give them a
	// bounded window to unwind before declaring a leak.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d before, %d after abandoning consumers\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestExchangeEarlyCloseStress closes consumers at random points while
// producers are mid-stream, repeatedly.
func TestExchangeEarlyCloseStress(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	env := newTestEnv(t, 1024)
	f := env.makeInts(t, "t", shuffled(4000, 21)...)
	for round := 0; round < 10; round++ {
		x, err := NewExchange(ExchangeConfig{
			Schema:      intSchema,
			Producers:   3,
			Consumers:   1,
			PacketSize:  4,
			FlowControl: true,
			Slack:       1,
			NewProducer: func(g int) (Iterator, error) {
				return NewFileScan(f, nil, false)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		c := x.Consumer(0)
		if err := c.Open(); err != nil {
			t.Fatal(err)
		}
		cur := NewCursor(c, 1)
		for i := 0; i < round*37; i++ {
			r, ok, err := cur.Pull()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			r.Unfix()
		}
		cur.Release()
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		env.checkNoPinLeak(t)
	}
}

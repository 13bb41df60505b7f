package core

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/record"
)

// loopScan is an endless iterator: it replays a file scan forever by
// reopening it at end-of-stream. Without external cancellation a producer
// driving it would never finish.
type loopScan struct {
	newScan func() (Iterator, error)
	cur     Iterator
}

func (l *loopScan) Schema() *record.Schema { return l.cur.Schema() }

func (l *loopScan) Open() error { return l.cur.Open() }

func (l *loopScan) NextBatch(b *Batch) error {
	for {
		if err := l.cur.NextBatch(b); err != nil || b.Len() > 0 {
			return err
		}
		if err := l.cur.Close(); err != nil {
			return err
		}
		next, err := l.newScan()
		if err != nil {
			return err
		}
		l.cur = next
		if err := l.cur.Open(); err != nil {
			return err
		}
	}
}

func (l *loopScan) Close() error { return l.cur.Close() }

// TestExchangeDoneCancelsEndlessProducers proves that closing the Done
// channel bounds an abandoned query's work: producers drive an iterator
// that would never reach end-of-stream, the consumer walks away, and the
// whole tree still tears down within the timeout — which is only possible
// if the producers abandoned their subtrees at the cancellation poll.
func TestExchangeDoneCancelsEndlessProducers(t *testing.T) {
	env := newTestEnv(t, 512)
	f := env.makeInts(t, "t", shuffled(500, 3)...)
	before := runtime.NumGoroutine()
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
	close(done)

	// Close must complete even though no producer will ever see EOS on its
	// own; bound it so a regression hangs the test visibly, not forever.
	closed := make(chan error, 1)
	go func() { closed <- c.Close() }()
	select {
	case err := <-closed:
		// The canceled producers report ErrCanceled via the final packets;
		// Close surfacing it (or nil, if the consumer's drain won the race)
		// are both orderly shutdowns.
		if err != nil && !errors.Is(err, ErrCanceled) {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(10 * time.Second):
		buf := make([]byte, 1<<16)
		t.Fatalf("close hung: producers ignored cancellation\n%s", buf[:runtime.Stack(buf, true)])
	}
	env.checkNoPinLeak(t)
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after cancellation", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestExchangeDoneNilIsInert pins the default: a nil Done channel changes
// nothing about a normal run.
func TestExchangeDoneNilIsInert(t *testing.T) {
	env := newTestEnv(t, 512)
	const n = 1000
	f := env.makeInts(t, "t", shuffled(n, 9)...)
	x, err := NewExchange(ExchangeConfig{
		Schema:    intSchema,
		Producers: 2,
		Consumers: 1,
		NewProducer: func(g int) (Iterator, error) {
			return NewFileScan(f, nil, false)
		},
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
	env.checkNoPinLeak(t)
}

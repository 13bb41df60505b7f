package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"testing"
	"time"

	"repro/internal/plan"
)

func noMetrics() *serverMetrics { return newServerMetrics(nil) }

// TestGovernorFIFOAndWeights exercises the token accounting: slots bound
// concurrent queries, producer tokens bound total parallelism, and the
// queue is strictly FIFO — a light query does not overtake a heavy one.
func TestGovernorFIFOAndWeights(t *testing.T) {
	g := newGovernor(2, 8, 4, noMetrics())
	ctx := context.Background()

	if err := g.admit(ctx, 6); err != nil {
		t.Fatal(err)
	}
	if err := g.admit(ctx, 2); err != nil {
		t.Fatal(err)
	}

	// Queue: heavy (needs 6 tokens) first, then light (needs 0).
	order := make(chan int, 2)
	enqueue := func(id, weight int) {
		go func() {
			if err := g.admit(ctx, weight); err != nil {
				t.Errorf("queued admit %d: %v", id, err)
			}
			order <- id
		}()
	}
	enqueue(1, 6)
	waitFor(t, 5*time.Second, "first waiter queued", func() bool { return g.queueLen() == 1 })
	enqueue(2, 0)
	waitFor(t, 5*time.Second, "second waiter queued", func() bool { return g.queueLen() == 2 })

	// Freeing the light query (2 tokens) leaves only 2 free: the heavy
	// head still doesn't fit, and FIFO must hold the light one behind it.
	g.release(2)
	select {
	case id := <-order:
		t.Fatalf("waiter %d admitted past the blocked queue head", id)
	case <-time.After(50 * time.Millisecond):
	}
	// Freeing the 6-token query unblocks the head, and the light waiter
	// behind it. (Both grants land together; the goroutines report in
	// scheduler order, so assert the set, not the sequence — FIFO itself
	// was proven by the overtake check above.)
	g.release(6)
	got := map[int]bool{<-order: true, <-order: true}
	if !got[1] || !got[2] {
		t.Fatalf("admitted waiters = %v, want {1,2}", got)
	}
}

// TestGovernorRejections pins the failure modes: queue overflow, drain,
// queue-wait expiry, and plans too parallel for the budget.
func TestGovernorRejections(t *testing.T) {
	g := newGovernor(1, 4, 1, noMetrics())
	ctx := context.Background()

	var ae *AdmitError
	if err := g.admit(ctx, 5); !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
		t.Fatalf("over-budget admit: %v, want 400 AdmitError", err)
	}

	if err := g.admit(ctx, 1); err != nil {
		t.Fatal(err)
	}
	// One waiter fits the queue...
	done := make(chan error, 1)
	go func() { done <- g.admit(ctx, 1) }()
	waitFor(t, 5*time.Second, "waiter queued", func() bool { return g.queueLen() == 1 })
	// ...the next overflows.
	if err := g.admit(ctx, 1); !errors.Is(err, ErrSaturated) {
		t.Fatalf("overflow admit: %v, want ErrSaturated", err)
	}
	// A deadline expiring in the queue maps to ErrQueueTimeout.
	short, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
	defer cancel()
	g2 := newGovernor(0, 4, 4, noMetrics()) // zero slots: everything queues
	if err := g2.admit(short, 1); !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("expired admit: %v, want ErrQueueTimeout", err)
	}
	// Drain rejects the queued waiter and everything after it.
	g.drain()
	if err := <-done; !errors.Is(err, ErrDraining) {
		t.Fatalf("queued waiter under drain: %v, want ErrDraining", err)
	}
	if err := g.admit(ctx, 1); !errors.Is(err, ErrDraining) {
		t.Fatalf("admit after drain: %v, want ErrDraining", err)
	}
}

// TestGovernorCancelGrantRace hammers the race between a grant and the
// waiter's context expiring: whichever side wins, tokens must balance —
// after everything settles the full capacity is admittable again.
func TestGovernorCancelGrantRace(t *testing.T) {
	g := newGovernor(1, 4, 64, noMetrics())
	for i := 0; i < 200; i++ {
		if err := g.admit(context.Background(), 1); err != nil {
			t.Fatalf("iter %d: baseline admit: %v", i, err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- g.admit(ctx, 1) }()
		waitFor(t, 5*time.Second, "waiter queued", func() bool { return g.queueLen() == 1 })
		// Release and cancel concurrently: the waiter either got the slot
		// (and must give it back on cancel) or was removed from the queue.
		go g.release(1)
		cancel()
		err := <-done
		if err == nil {
			g.release(1)
		} else if !errors.Is(err, context.Canceled) && !errors.Is(err, ErrQueueTimeout) {
			t.Fatalf("iter %d: %v", i, err)
		}
		// Either way the slot must be free again.
		if err := g.admit(context.Background(), 1); err != nil {
			t.Fatalf("iter %d: capacity leaked: %v", i, err)
		}
		g.release(1)
	}
}

// TestPlanCacheLRU pins eviction order and the disabled mode.
func TestPlanCacheLRU(t *testing.T) {
	m := noMetrics()
	c := newPlanCache(2, m)
	tpl := func(src string) *plan.Template {
		tp, err := plan.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		return tp
	}
	k := func(i int) string { return plan.Normalize(fmt.Sprintf("scan t%d", i)) }

	c.put(k(1), tpl("scan t1"))
	c.put(k(2), tpl("scan t2"))
	if _, ok := c.get(k(1)); !ok { // refresh 1: now 2 is LRU
		t.Fatal("entry 1 missing")
	}
	c.put(k(3), tpl("scan t3")) // evicts 2
	if _, ok := c.get(k(2)); ok {
		t.Error("entry 2 survived eviction")
	}
	if _, ok := c.get(k(1)); !ok {
		t.Error("entry 1 evicted out of LRU order")
	}
	if c.len() != 2 {
		t.Errorf("cache len = %d, want 2", c.len())
	}

	off := newPlanCache(-1, noMetrics())
	off.put("k", tpl("scan t"))
	if _, ok := off.get("k"); ok {
		t.Error("disabled cache returned a hit")
	}
}

package server

import (
	"container/list"
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// AdmitError is an admission-control rejection: the query never ran.
// Status is the HTTP status the handler maps it to; Reason the stable
// machine-readable tag that also labels volcano_server_rejected_total.
type AdmitError struct {
	Status int
	Reason string
	msg    string
}

func (e *AdmitError) Error() string { return e.msg }

var (
	// ErrSaturated: the wait queue is full. Clients should back off and
	// retry (429).
	ErrSaturated = &AdmitError{Status: http.StatusTooManyRequests, Reason: "saturated",
		msg: "server: saturated: admission queue full"}
	// ErrDraining: the server is shutting down and admits nothing (503).
	ErrDraining = &AdmitError{Status: http.StatusServiceUnavailable, Reason: "draining",
		msg: "server: draining: not admitting queries"}
	// ErrQueueTimeout: the query waited its whole deadline in the queue
	// without getting a slot (503).
	ErrQueueTimeout = &AdmitError{Status: http.StatusServiceUnavailable, Reason: "queue_timeout",
		msg: "server: queue wait deadline exceeded"}
)

// errTooParallel is built per request: the plan's producer demand can
// never be satisfied by this server's budget, so 400, not 429.
func errTooParallel(weight, budget int) *AdmitError {
	return &AdmitError{Status: http.StatusBadRequest, Reason: "too_parallel",
		msg: fmt.Sprintf("server: plan forks %d producer goroutines, budget is %d", weight, budget)}
}

// governor is the token-based admission controller: a query needs one of
// slots (bounding concurrently executing queries) plus weight producer
// tokens (bounding the total exchange producer goroutines the process
// forks). Requests that cannot be served immediately wait in a bounded
// FIFO; beyond that bound admission fails fast with ErrSaturated.
type governor struct {
	mu        sync.Mutex
	slotsFree int
	prodFree  int
	prodCap   int
	maxQueue  int
	draining  bool
	waiters   *list.List // of *waiter, FIFO

	m *serverMetrics
}

// waiter is one queued admission request. granted/ready are written under
// governor.mu; ready has capacity 1 so grants never block the granter.
type waiter struct {
	weight  int
	granted bool
	ready   chan error
}

func newGovernor(maxConcurrent, maxProducers, maxQueue int, m *serverMetrics) *governor {
	return &governor{
		slotsFree: maxConcurrent,
		prodFree:  maxProducers,
		prodCap:   maxProducers,
		maxQueue:  maxQueue,
		waiters:   list.New(),
		m:         m,
	}
}

// admit blocks until the query holds one slot and weight producer tokens,
// or fails with an *AdmitError / the context's error mapped to
// ErrQueueTimeout. On nil return the caller owns the resources and must
// release(weight) exactly once.
func (g *governor) admit(ctx context.Context, weight int) error {
	g.mu.Lock()
	if g.draining {
		g.mu.Unlock()
		return ErrDraining
	}
	if weight > g.prodCap {
		g.mu.Unlock()
		return errTooParallel(weight, g.prodCap)
	}
	// Fast path: resources free and nobody queued ahead of us (FIFO — a
	// light query must not overtake a heavy one that is already waiting).
	if g.waiters.Len() == 0 && g.slotsFree > 0 && g.prodFree >= weight {
		g.slotsFree--
		g.prodFree -= weight
		g.mu.Unlock()
		return nil
	}
	if g.waiters.Len() >= g.maxQueue {
		g.mu.Unlock()
		return ErrSaturated
	}
	w := &waiter{weight: weight, ready: make(chan error, 1)}
	el := g.waiters.PushBack(w)
	g.mu.Unlock()

	g.m.queued.Inc()
	start := time.Now()
	select {
	case err := <-w.ready:
		g.m.queueWait.Observe(time.Since(start))
		return err
	case <-ctx.Done():
		g.mu.Lock()
		if w.granted {
			// Lost the race against a grant: the resources are ours, hand
			// them back and wake whoever they now fit.
			g.slotsFree++
			g.prodFree += w.weight
			g.grantLocked()
		} else {
			g.waiters.Remove(el)
		}
		g.mu.Unlock()
		g.m.queueWait.Observe(time.Since(start))
		if err := ctx.Err(); err == context.Canceled {
			return err // client went away; not a server-side rejection
		}
		return ErrQueueTimeout
	}
}

// release returns a query's resources and wakes queued requests they fit.
func (g *governor) release(weight int) {
	g.mu.Lock()
	g.slotsFree++
	g.prodFree += weight
	g.grantLocked()
	g.mu.Unlock()
}

// grantLocked admits queued requests in FIFO order while the head fits.
// Head-of-line blocking is deliberate: it keeps heavy queries from
// starving behind a stream of light ones. Callers hold g.mu.
func (g *governor) grantLocked() {
	for g.waiters.Len() > 0 && g.slotsFree > 0 {
		w := g.waiters.Front().Value.(*waiter)
		if g.prodFree < w.weight {
			return
		}
		g.waiters.Remove(g.waiters.Front())
		g.slotsFree--
		g.prodFree -= w.weight
		w.granted = true
		w.ready <- nil
	}
}

// drain stops all admission: queued requests are rejected with
// ErrDraining immediately, future admits fail fast. Executing queries are
// unaffected (the server waits for them separately).
func (g *governor) drain() {
	g.mu.Lock()
	g.draining = true
	for g.waiters.Len() > 0 {
		w := g.waiters.Remove(g.waiters.Front()).(*waiter)
		w.ready <- ErrDraining
	}
	g.mu.Unlock()
}

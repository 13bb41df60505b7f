package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/record"
)

// BindRequest is the per-query context a Coordinator needs to take over
// a plan's exchange cuts. The serving layer fills one per query and
// installs Coordinator.Binder(req) as BuildOptions.Remote.
type BindRequest struct {
	// QueryID names the query in every dispatch, for the workers' logs
	// and metrics.
	QueryID string
	// CatalogVersion travels in every dispatch; workers on a different
	// catalog epoch reject it.
	CatalogVersion string
	// BatchSize mirrors BuildOptions.BatchSize into dispatched fragments
	// (0 = core.DefaultBatchSize).
	BatchSize int
	// Env materialises arriving records.
	Env *core.Env
	// Meter, when non-nil, is billed for the wire traffic and temp-file
	// activity the remote cuts cause on the coordinator.
	Meter *core.ResourceMeter
	// Summary, when non-nil, accumulates fragment stats and retries for
	// the query's trailer and EXPLAIN ANALYZE.
	Summary *Summary
	// Ctx is the query's context (nil = context.Background()). Every
	// dispatch derives from it, so canceling it cuts the query's streams
	// and its fragments end with core.ErrCanceled.
	Ctx context.Context
}

// Binder returns the plan.RemoteBinder for one query: offered a
// distributable exchange cut, it binds each of the cut's producers to a
// remoteFragment, which ships the offered node as planned to the worker
// fleet. With no live workers the binder declines and the plan builds
// locally.
func (c *Coordinator) Binder(req BindRequest) plan.RemoteBinder {
	if req.BatchSize < 1 {
		req.BatchSize = core.DefaultBatchSize
	}
	if req.Ctx == nil {
		req.Ctx = context.Background()
	}
	if req.Summary == nil {
		req.Summary = &Summary{}
	}
	if req.Env != nil {
		req.Env = req.Env.WithMeter(req.Meter)
	}
	return func(path string, n *plan.Node, schema *record.Schema) (func(int) (core.Iterator, error), func(), error) {
		if c.LiveWorkers() == 0 {
			return nil, nil, nil
		}
		fragment, err := json.Marshal(n)
		if err != nil {
			return nil, nil, fmt.Errorf("dist: fragment %q: %w", path, err)
		}
		ctx, stop := context.WithCancel(req.Ctx)
		cut := &remoteCut{
			c:         c,
			req:       req,
			ctx:       ctx,
			path:      path,
			fragment:  fragment,
			resumable: plan.Deterministic(n.Inputs[0]),
			schema:    schema,
		}
		producer := func(g int) (core.Iterator, error) {
			return &remoteFragment{cut: cut, stat: plan.FragmentStat{Path: path, Producer: g}}, nil
		}
		return producer, stop, nil
	}
}

// Summary accumulates one query's distributed-execution facts for its
// trailer and EXPLAIN ANALYZE output.
type Summary struct {
	// Retries counts fragment re-dispatches after worker loss.
	Retries atomic.Int64

	mu    sync.Mutex
	frags []*remoteFragment
}

func (s *Summary) add(f *remoteFragment) {
	s.mu.Lock()
	s.frags = append(s.frags, f)
	s.mu.Unlock()
}

// Fragments snapshots every fragment's current stats, in (path,
// producer) order. A nil Summary has none.
func (s *Summary) Fragments() []plan.FragmentStat {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	out := make([]plan.FragmentStat, len(s.frags))
	for i, f := range s.frags {
		out[i] = f.stats()
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Path != out[j].Path {
			return out[i].Path < out[j].Path
		}
		return out[i].Producer < out[j].Producer
	})
	return out
}

// remoteCut is what the producers of one bound cut share.
type remoteCut struct {
	c   *Coordinator
	req BindRequest // its Env carries its Meter
	// ctx carries every dispatch of the cut; the binder's stop cancels
	// it, which cuts each live response stream.
	ctx       context.Context
	path      string
	fragment  json.RawMessage // the cut's exchange node, shipped in every dispatch
	resumable bool
	schema    *record.Schema
}

// remoteFragment is producer g of a bound cut: an iterator the cut's
// exchange hub drives on that producer's goroutine. It dispatches the
// fragment, decodes the frames of the response body into its pull
// batches, and on worker loss re-dispatches with Skip set to the records
// it has already returned. It reads the next frame only once the current
// one is used up, so what it has returned is exactly what the consumer
// side received: the count a replay skips needs no lock and no attempt
// check.
type remoteFragment struct {
	cut     *remoteCut
	w       *core.ResultWriter
	body    io.ReadCloser // the current attempt's stream, nil between attempts
	f       core.WireFrame
	pos     int  // records of f already returned
	done    bool // EOS read, or the cut stopped
	attempt int
	lastErr error

	mu   sync.Mutex // guards stat against Summary.Fragments
	stat plan.FragmentStat
}

func (r *remoteFragment) Schema() *record.Schema { return r.cut.schema }

func (r *remoteFragment) Open() error {
	w, err := r.cut.req.Env.NewResultWriter("dist", r.cut.schema)
	if err != nil {
		return err
	}
	r.w = w
	r.stat.State = "running"
	r.cut.req.Summary.add(r)
	return nil
}

// NextBatch implements core.Iterator: it materialises the records of the
// current frame into b and returns once b is full or the frame is used
// up — it never waits on the wire with records in hand.
func (r *remoteFragment) NextBatch(b *core.Batch) error {
	b.Reset()
	for !b.Full() {
		if rest := r.f.Recs[r.pos:]; len(rest) > 0 {
			if room := b.Target() - b.Len(); len(rest) > room {
				rest = rest[:room]
			}
			for _, data := range rest {
				rec, err := r.w.WriteBytes(data)
				if err != nil {
					b.Release()
					return err
				}
				b.Append(rec)
			}
			r.pos += len(rest)
			continue
		}
		if b.Len() > 0 || r.done {
			break
		}
		if err := r.readFrame(); err != nil {
			return err
		}
	}
	r.mu.Lock()
	r.stat.Records += int64(b.Len())
	r.mu.Unlock()
	return nil
}

func (r *remoteFragment) Close() error {
	r.closeBody()
	if r.w != nil {
		err := r.w.Dispose()
		r.w = nil
		return err
	}
	return nil
}

func (r *remoteFragment) stats() plan.FragmentStat {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stat
}

func (r *remoteFragment) setState(state string) {
	r.mu.Lock()
	r.stat.State = state
	r.mu.Unlock()
}

func (r *remoteFragment) closeBody() {
	if r.body != nil {
		r.body.Close()
		r.body = nil
	}
}

// readFrame reads the fragment's next frame into r.f, dispatching first
// when no attempt is streaming, and re-dispatching after a lost
// connection. Each record of a data frame is checked against the cut's
// schema. r.done is set at EOS and when the cut's context has ended.
func (r *remoteFragment) readFrame() error {
	for {
		if r.body == nil {
			if err := r.dispatch(); err != nil || r.done {
				return err
			}
		}
		r.pos = 0
		if err := core.ReadWireFrame(r.body, &r.f, 0); err != nil {
			// Worker loss, unless the cut's context cut the stream: then
			// dispatch ends the fragment.
			r.closeBody()
			if r.cut.ctx.Err() == nil {
				r.cut.c.markLost(r.stat.Worker)
			}
			r.lastErr = fmt.Errorf("dist: fragment %s producer %d: connection to %s lost before EOS: %v",
				r.cut.path, r.stat.Producer, r.stat.Worker, err)
			continue
		}
		r.accountWire()
		err := r.f.Err()
		for i := 0; err == nil && i < len(r.f.Recs); i++ {
			err = r.cut.schema.Check(r.f.Recs[i]) // a data error, not worker loss: no re-dispatch
		}
		if err != nil {
			r.f.Recs = r.f.Recs[:0]
			return r.fail(fmt.Errorf("dist: fragment %s producer %d on %s: %w", r.cut.path, r.stat.Producer, r.stat.Worker, err))
		}
		if r.f.EOS() {
			// Read the body to its end, so the connection goes back to
			// the pool for the next dispatch.
			_, _ = io.Copy(io.Discard, r.body)
			r.closeBody()
			r.done = true
			r.setState("done")
		}
		return nil
	}
}

// dispatch starts the next attempt on a live worker, skipping the
// records already returned. A refusal fails the fragment, and so does a
// fleet still busy after send's backoff; a worker that cannot be reached
// is marked lost and the next attempt goes elsewhere, up to maxAttempts
// in all.
func (r *remoteFragment) dispatch() error {
	c := r.cut.c
	for {
		if r.cut.ctx.Err() != nil {
			return r.ended()
		}
		if r.attempt == maxAttempts {
			return r.fail(fmt.Errorf("dist: fragment %s producer %d: lost after %d attempts: %v",
				r.cut.path, r.stat.Producer, maxAttempts, r.lastErr))
		}
		r.attempt++
		r.mu.Lock()
		r.stat.Attempts = r.attempt
		r.mu.Unlock()
		skip := r.stat.Records
		if r.attempt > 1 {
			if !r.cut.resumable && skip > 0 {
				return r.fail(fmt.Errorf("dist: fragment %s producer %d: worker lost mid-stream and fragment is not resumable (nested exchange): %v",
					r.cut.path, r.stat.Producer, r.lastErr))
			}
			c.m.retries.Inc()
			r.cut.req.Summary.Retries.Add(1)
			c.cfg.Log.Printf("dist: query %s fragment %s/%d: retrying (attempt %d, skip %d): %v",
				r.cut.req.QueryID, r.cut.path, r.stat.Producer, r.attempt, skip, r.lastErr)
		}
		w, body, err := r.send(FragmentSpec{
			QueryID:        r.cut.req.QueryID,
			Fragment:       r.cut.fragment,
			CatalogVersion: r.cut.req.CatalogVersion,
			Path:           r.cut.path,
			Producer:       r.stat.Producer,
			Attempt:        r.attempt,
			Skip:           skip,
			BatchSize:      r.cut.req.BatchSize,
		})
		if w == nil {
			return r.fail(fmt.Errorf("dist: fragment %s producer %d: no live workers", r.cut.path, r.stat.Producer))
		}
		if err != nil {
			var rej *dispatchRejected
			if errors.As(err, &rej) || errors.Is(err, errBusy) {
				return r.fail(err)
			}
			if r.cut.ctx.Err() == nil {
				c.markLost(w.addr)
			}
			r.lastErr = err
			continue
		}
		r.body = body
		r.mu.Lock()
		r.stat.Worker = w.addr
		r.mu.Unlock()
		return nil
	}
}

// send dispatches spec to a live worker; a nil worker means there is
// none. A worker that refuses for load is alive: it stays in rotation,
// and the dispatch goes again after a backoff, to another worker when
// there is one, up to maxBusy times.
func (r *remoteFragment) send(spec FragmentSpec) (*workerState, io.ReadCloser, error) {
	c, avoid := r.cut.c, r.stat.Worker
	for busy := 0; ; busy++ {
		w := c.pickWorker(avoid)
		if w == nil {
			return nil, nil, nil
		}
		body, err := c.dispatch(r.cut.ctx, w.addr, spec)
		if !errors.Is(err, errBusy) || busy == maxBusy {
			return w, body, err
		}
		avoid = w.addr
		t := time.NewTimer(min(time.Second, 10*time.Millisecond<<busy))
		select {
		case <-r.cut.ctx.Done():
			t.Stop()
			return w, nil, r.cut.ctx.Err()
		case <-t.C:
		}
	}
}

// ended finishes a fragment whose cut's context is done: a stopped cut
// ends cleanly, a canceled query with core.ErrCanceled.
func (r *remoteFragment) ended() error {
	r.done = true
	r.setState("failed")
	if r.cut.req.Ctx.Err() != nil {
		return core.ErrCanceled
	}
	return nil
}

// fail reports the fragment's permanent failure.
func (r *remoteFragment) fail(err error) error {
	r.setState("failed")
	r.cut.c.m.failures.Inc()
	return err
}

// accountWire attributes the frame just read, payload bytes, everywhere
// they are owed: the fragment's stats, the query's resource meter (the
// trailer's wire_recv_bytes reads its snapshot), and the process-wide
// metric family.
func (r *remoteFragment) accountWire() {
	payload := len(r.f.Msg)
	for _, rec := range r.f.Recs {
		payload += 4 + len(rec)
	}
	r.mu.Lock()
	r.stat.WireBytes += int64(payload)
	r.mu.Unlock()
	r.cut.req.Meter.WireRecv(payload)
	r.cut.c.m.wireRecv.Add(int64(payload))
}

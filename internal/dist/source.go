package dist

import (
	"errors"
	"fmt"
	"net"
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
	// QueryID must be unique among in-flight queries: it keys the
	// data-plane routing of fragment streams back to this query.
	QueryID string
	// Source is the normalized plan text (Template.Source); workers
	// recompile it to reach the fragment by position.
	Source string
	// Root is the compiled tree the build walks (Template.Root).
	Root *plan.Node
	// CatalogVersion travels in every dispatch; workers on a different
	// catalog epoch reject it.
	CatalogVersion string
	// BatchSize mirrors BuildOptions.BatchSize into dispatched fragments
	// (0 = core.DefaultBatchSize).
	BatchSize int
	// Env and Cat build probe instances (fragment schemas) and
	// materialise arriving records.
	Env *core.Env
	Cat plan.Catalog
	// Meter, when non-nil, is billed for the wire traffic and temp-file
	// activity the remote cuts cause on the coordinator.
	Meter *core.ResourceMeter
	// Summary, when non-nil, accumulates fragment stats and wire bytes
	// for the query's trailer and EXPLAIN ANALYZE.
	Summary *Summary
	// Done, when closed, makes fragment controllers abandon their work.
	Done <-chan struct{}
}

// Binder returns the plan.RemoteBinder for one query: offered a
// distributable exchange cut, it replaces the whole exchange subtree
// with a remoteSource whose producers run on the worker fleet. With no
// live workers the binder declines and the plan builds locally.
func (c *Coordinator) Binder(req BindRequest) plan.RemoteBinder {
	if req.BatchSize < 1 {
		req.BatchSize = core.DefaultBatchSize
	}
	return func(path string, n *plan.Node) (core.Iterator, bool, error) {
		if c.LiveWorkers() == 0 {
			return nil, false, nil
		}
		env := req.Env
		if env != nil && req.Meter != nil {
			env = env.WithMeter(req.Meter)
		}
		schema, err := plan.FragmentSchema(env, req.Cat, req.Root, path)
		if err != nil {
			return nil, false, fmt.Errorf("dist: fragment %q schema probe: %w", path, err)
		}
		producers := 1
		if n.X != nil && n.X.Producers > 1 {
			producers = n.X.Producers
		}
		src := &remoteSource{
			c:         c,
			req:       req,
			env:       env,
			path:      path,
			producers: producers,
			resumable: plan.Deterministic(n.Inputs[0]),
			schema:    schema,
			done:      req.Done,
		}
		return src, true, nil
	}
}

// Summary accumulates one query's distributed-execution facts for its
// trailer and EXPLAIN ANALYZE output. All methods are nil-safe.
type Summary struct {
	// WireRecv is fragment payload bytes received on the data plane.
	WireRecv atomic.Int64
	// Retries counts fragment re-dispatches after worker loss.
	Retries atomic.Int64

	mu  sync.Mutex
	fns []func() plan.FragmentStat
}

func (s *Summary) addFrag(fn func() plan.FragmentStat) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.fns = append(s.fns, fn)
	s.mu.Unlock()
}

// StatFuncs returns the live per-fragment stat closures (for wiring into
// an Analysis via AddFragment).
func (s *Summary) StatFuncs() []func() plan.FragmentStat {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]func() plan.FragmentStat(nil), s.fns...)
}

// Fragments snapshots every fragment's current stats.
func (s *Summary) Fragments() []plan.FragmentStat {
	fns := s.StatFuncs()
	out := make([]plan.FragmentStat, len(fns))
	for i, fn := range fns {
		out[i] = fn()
	}
	return out
}

// srcItem is one unit flowing from a fragment controller to NextBatch: a
// bundle of record images (copied out of the wire frame's arena), or a
// producer's terminal EOS/error.
type srcItem struct {
	g       int
	attempt int
	recs    [][]byte
	eos     bool
	err     error
}

// fragState is one producer fragment's shared state. remoteSource.mu
// guards every field; the attempt/delivered pair under one lock is what
// makes skip-replay exact (see runProducer).
type fragState struct {
	worker    string
	attempt   int   // attempt whose records NextBatch accepts
	delivered int64 // records handed to the consumer
	wireBytes int64
	state     string // running | done | failed
}

var errCanceled = errors.New("dist: query canceled")

// remoteSource is the receiving end of one exchange cut: a core.Iterator
// standing where the exchange node stood, pulling record streams that
// producer fragments on remote workers push over the data plane.
//
// One controller goroutine per producer owns that fragment's lifecycle —
// dispatch, await the dialed-in connection, decode frames, and on worker
// loss re-dispatch with Skip set to the records already delivered. The
// delivered count and the accepted-attempt number share one mutex, so a
// retry's skip value is exact: once the controller bumps the attempt,
// NextBatch drops any stale buffered records instead of counting them.
type remoteSource struct {
	c         *Coordinator
	req       BindRequest
	env       *core.Env
	path      string
	producers int
	resumable bool
	schema    *record.Schema
	done      <-chan struct{}

	w      *core.ResultWriter
	items  chan srcItem
	cancel chan struct{}
	wg     sync.WaitGroup
	closed sync.Once

	mu       sync.Mutex
	frags    []*fragState
	conns    map[net.Conn]struct{}
	firstErr error

	eosLeft  int
	pend     srcItem
	pendIdx  int
	havePend bool
}

func (s *remoteSource) Schema() *record.Schema { return s.schema }

func (s *remoteSource) Open() error {
	w, err := s.env.NewResultWriter("dist", s.schema)
	if err != nil {
		return err
	}
	s.w = w
	s.items = make(chan srcItem, 8)
	s.cancel = make(chan struct{})
	s.conns = map[net.Conn]struct{}{}
	s.eosLeft = s.producers
	s.frags = make([]*fragState, s.producers)
	for g := 0; g < s.producers; g++ {
		f := &fragState{state: "running"}
		s.frags[g] = f
		g := g
		s.req.Summary.addFrag(func() plan.FragmentStat {
			s.mu.Lock()
			defer s.mu.Unlock()
			return plan.FragmentStat{
				Path:      s.path,
				Producer:  g,
				Worker:    f.worker,
				Attempts:  f.attempt,
				Records:   f.delivered,
				WireBytes: f.wireBytes,
				State:     f.state,
			}
		})
		s.wg.Add(1)
		go s.runProducer(g)
	}
	return nil
}

// NextBatch implements core.Iterator: it materialises the records of the
// current bundle into b, counting each run of them as delivered under one
// s.mu hold, and returns once b is full or the bundle is used up — it
// never waits on the controllers with records in hand.
func (s *remoteSource) NextBatch(b *core.Batch) error {
	b.Reset()
	for {
		if s.havePend && s.pendIdx < len(s.pend.recs) {
			run := s.pend.recs[s.pendIdx:]
			if room := b.Target() - b.Len(); len(run) > room {
				run = run[:room]
			}
			s.mu.Lock()
			f := s.frags[s.pend.g]
			stale := f.attempt != s.pend.attempt
			if !stale {
				f.delivered += int64(len(run))
			}
			s.mu.Unlock()
			if stale {
				// The controller moved on to a replacement attempt;
				// everything left in this bundle will be re-delivered by
				// the replay, so it must not reach the consumer twice.
				s.havePend = false
				continue
			}
			s.pendIdx += len(run)
			for _, data := range run {
				rec, err := s.w.WriteBytes(data)
				if err != nil {
					b.Release()
					return err
				}
				b.Append(rec)
			}
			if b.Full() {
				return nil
			}
			continue
		}
		s.havePend = false
		if b.Len() > 0 {
			return nil
		}
		if s.eosLeft == 0 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return s.firstErr
		}
		var item srcItem
		select {
		case item = <-s.items:
		case <-s.done:
			return errCanceled
		}
		switch {
		case item.err != nil:
			s.mu.Lock()
			if s.firstErr == nil {
				s.firstErr = item.err
			}
			err := s.firstErr
			s.mu.Unlock()
			s.eosLeft--
			return err
		case item.eos:
			s.eosLeft--
		default:
			s.pend = item
			s.pendIdx = 0
			s.havePend = true
		}
	}
}

func (s *remoteSource) Close() error {
	s.closed.Do(func() {
		close(s.cancel)
		// Sever live data-plane reads: a controller blocked in
		// ReadWireFrame on a healthy-but-slow worker would otherwise
		// hold up Close indefinitely.
		s.mu.Lock()
		for conn := range s.conns {
			_ = conn.Close()
		}
		s.mu.Unlock()
	})
	s.wg.Wait()
	if s.w != nil {
		err := s.w.Dispose()
		s.w = nil
		return err
	}
	return nil
}

// push hands an item to NextBatch, giving up when the query is closed or
// canceled so controllers never block on an abandoned channel.
func (s *remoteSource) push(item srcItem) bool {
	select {
	case s.items <- item:
		return true
	case <-s.cancel:
		return false
	case <-s.done:
		return false
	}
}

// beginAttempt moves producer g's accepted attempt forward and returns
// the exact number of records already delivered — the Skip value a
// replacement dispatch must carry. Holding the same lock as NextBatch's
// delivered count makes the count final: no attempt-(n-1) record is counted
// after this returns.
func (s *remoteSource) beginAttempt(g, attempt int) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.frags[g]
	f.attempt = attempt
	return f.delivered
}

func (s *remoteSource) setWorker(g int, addr string) {
	s.mu.Lock()
	s.frags[g].worker = addr
	s.mu.Unlock()
}

func (s *remoteSource) setState(g int, state string) {
	s.mu.Lock()
	s.frags[g].state = state
	s.mu.Unlock()
}

// trackConn registers a routed conn for Close to sever; if the source
// is already closing, the conn is closed immediately.
func (s *remoteSource) trackConn(conn net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.isCanceled() {
		_ = conn.Close()
		return
	}
	s.conns[conn] = struct{}{}
}

func (s *remoteSource) untrackConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

func (s *remoteSource) isCanceled() bool {
	select {
	case <-s.cancel:
		return true
	default:
	}
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// fail reports producer g's permanent failure into the stream.
func (s *remoteSource) fail(g int, err error) {
	s.setState(g, "failed")
	s.c.m.failures.Inc()
	s.push(srcItem{g: g, err: err})
}

// runProducer is producer g's controller: it drives dispatch attempts
// until one streams to EOS or the retry budget is spent.
func (s *remoteSource) runProducer(g int) {
	defer s.wg.Done()
	var lastWorker string
	var lastErr error
	max := s.c.cfg.MaxAttempts
	for attempt := 1; attempt <= max; attempt++ {
		if s.isCanceled() {
			s.setState(g, "failed")
			return
		}
		skip := s.beginAttempt(g, attempt)
		if attempt > 1 {
			if !s.resumable && skip > 0 {
				s.fail(g, fmt.Errorf("dist: fragment %s producer %d: worker lost mid-stream and fragment is not resumable (nested exchange): %v",
					s.path, g, lastErr))
				return
			}
			s.c.m.retries.Inc()
			s.req.Summary.bumpRetries()
			s.c.cfg.Log.Printf("dist: query %s fragment %s/%d: retrying (attempt %d, skip %d): %v",
				s.req.QueryID, s.path, g, attempt, skip, lastErr)
		}
		err, retryable := s.runAttempt(g, attempt, skip, &lastWorker)
		if err == nil {
			s.setState(g, "done")
			return
		}
		if errors.Is(err, errCanceled) {
			s.setState(g, "failed")
			return
		}
		if !retryable {
			s.fail(g, err)
			return
		}
		lastErr = err
	}
	s.fail(g, fmt.Errorf("dist: fragment %s producer %d: lost after %d attempts: %v", s.path, g, max, lastErr))
}

// runAttempt runs one dispatch attempt end to end. A nil error means the
// fragment streamed to EOS. retryable marks transport-shaped failures
// (worker loss) as eligible for another attempt.
func (s *remoteSource) runAttempt(g, attempt int, skip int64, lastWorker *string) (err error, retryable bool) {
	key := routeKey(s.req.QueryID, s.path, g, attempt)
	ch := s.c.expectConn(key)
	w := s.c.pickWorker(*lastWorker)
	if w == nil {
		s.c.forgetConn(key)
		return fmt.Errorf("dist: fragment %s producer %d: no live workers", s.path, g), false
	}
	spec := FragmentSpec{
		QueryID:        s.req.QueryID,
		Plan:           s.req.Source,
		CatalogVersion: s.req.CatalogVersion,
		Path:           s.path,
		Producer:       g,
		Attempt:        attempt,
		Skip:           skip,
		BatchSize:      s.req.BatchSize,
		Endpoint:       s.c.cfg.AdvertiseAddr,
	}
	if derr := s.c.dispatch(w.addr, spec); derr != nil {
		s.c.forgetConn(key)
		var rej *dispatchRejected
		if errors.As(derr, &rej) {
			return derr, false
		}
		s.c.markLost(w.addr)
		return derr, true
	}
	*lastWorker = w.addr
	s.setWorker(g, w.addr)

	timer := time.NewTimer(s.c.cfg.ConnWait)
	defer timer.Stop()
	var rc *routedConn
	select {
	case rc = <-ch:
	case <-timer.C:
		s.c.forgetConn(key)
		s.c.markLost(w.addr)
		return fmt.Errorf("dist: fragment %s producer %d: worker %s accepted but never dialed in", s.path, g, w.addr), true
	case <-s.cancel:
		s.c.forgetConn(key)
		return errCanceled, false
	case <-s.done:
		s.c.forgetConn(key)
		return errCanceled, false
	}
	defer rc.conn.Close()
	s.trackConn(rc.conn)
	defer s.untrackConn(rc.conn)

	var f core.WireFrame
	for {
		if rerr := core.ReadWireFrame(rc.br, &f, 0); rerr != nil {
			if s.isCanceled() {
				return errCanceled, false
			}
			s.c.markLost(w.addr)
			return fmt.Errorf("dist: fragment %s producer %d: connection to %s lost before EOS: %v", s.path, g, w.addr, rerr), true
		}
		payload := 0
		for _, r := range f.Recs {
			payload += 4 + len(r)
		}
		payload += len(f.Msg)
		s.accountWire(g, payload)
		if ferr := f.Err(); ferr != nil {
			return fmt.Errorf("dist: fragment %s producer %d on %s: %w", s.path, g, w.addr, ferr), false
		}
		if len(f.Recs) > 0 {
			// Copy out of the frame's arena: the next ReadWireFrame
			// overwrites it, and the item outlives this loop iteration.
			total := 0
			for _, r := range f.Recs {
				total += len(r)
			}
			buf := make([]byte, 0, total)
			recs := make([][]byte, 0, len(f.Recs))
			for _, r := range f.Recs {
				off := len(buf)
				buf = append(buf, r...)
				recs = append(recs, buf[off:len(buf):len(buf)])
			}
			if !s.push(srcItem{g: g, attempt: attempt, recs: recs}) {
				return errCanceled, false
			}
		}
		if f.EOS() {
			if !s.push(srcItem{g: g, attempt: attempt, eos: true}) {
				return errCanceled, false
			}
			return nil, false
		}
	}
}

// accountWire attributes one received frame's payload bytes everywhere
// they are owed: the fragment's stats, the query's resource meter and
// trailer summary, and the process-wide metric family.
func (s *remoteSource) accountWire(g, payload int) {
	s.mu.Lock()
	s.frags[g].wireBytes += int64(payload)
	s.mu.Unlock()
	s.req.Meter.WireRecv(payload)
	s.req.Summary.bumpWire(int64(payload))
	s.c.m.wireRecv.Add(int64(payload))
}

func (s *Summary) bumpWire(n int64) {
	if s == nil {
		return
	}
	s.WireRecv.Add(n)
}

func (s *Summary) bumpRetries() {
	if s == nil {
		return
	}
	s.Retries.Add(1)
}

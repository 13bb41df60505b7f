package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
)

// CoordinatorConfig configures the fragment-shipping coordinator.
type CoordinatorConfig struct {
	// HeartbeatEvery is the worker health-probe interval (default 2s).
	HeartbeatEvery time.Duration
	// Metrics, when non-nil, receives the volcano_dist_* families.
	Metrics *metrics.Registry
	// Log receives dispatch and worker-loss lines (nil = log.Default).
	Log *log.Logger
}

const (
	// maxAttempts bounds dispatch attempts per fragment, first try
	// included.
	maxAttempts = 3
	// connWait bounds a dispatch's dial and the wait for its response
	// header; a worker slower than that counts as lost.
	connWait = 10 * time.Second
	// AdmitWait bounds how long a node queues a fragment for admission
	// before refusing it as busy: below connWait, so the refusal reaches
	// the coordinator before it stops waiting and counts the node lost.
	AdmitWait = connWait / 2
	// maxBusy bounds the busy refusals one dispatch attempt waits out.
	maxBusy = 20
	// idlePerWorker is how many finished fragment connections the
	// coordinator keeps open per worker for the next dispatch.
	idlePerWorker = 16
	// dataRcvBuf caps the kernel receive buffer of each dispatch
	// connection. TCP autotuning would otherwise grow it toward the
	// system maximum (megabytes per connection), which both unbounds the
	// coordinator's memory per in-flight fragment and lets a worker park
	// an entire fragment stream in kernel buffers — flow control exists
	// so producers run at most this far ahead of the consuming query,
	// exactly like the in-process exchange's bounded queue depth.
	dataRcvBuf = 256 << 10
)

// Coordinator owns the worker registry and the dispatch client. It does
// not build plans itself: the serving layer hands each query's build a
// RemoteBinder (see Coordinator.Binder) and the coordinator takes over
// every distributable exchange cut the build reaches.
type Coordinator struct {
	cfg    CoordinatorConfig
	m      *distMetrics
	client *http.Client // dispatches; each response body is a fragment stream

	mu      sync.Mutex
	workers map[string]*workerState
	order   []string // registration order, for round-robin
	next    int      // round-robin cursor
	closed  bool

	stop chan struct{}
	wg   sync.WaitGroup
}

type workerState struct {
	addr      string
	live      bool
	fragments int64
	failures  int64
}

// NewCoordinator builds the dispatch client and starts the heartbeat
// loop.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 2 * time.Second
	}
	if cfg.Log == nil {
		cfg.Log = log.Default()
	}
	dialer := &net.Dialer{Timeout: connWait}
	c := &Coordinator{
		cfg: cfg,
		m:   newDistMetrics(cfg.Metrics),
		client: &http.Client{Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				conn, err := dialer.DialContext(ctx, network, addr)
				if tc, ok := conn.(*net.TCPConn); ok {
					_ = tc.SetReadBuffer(dataRcvBuf)
				}
				return conn, err
			},
			ResponseHeaderTimeout: connWait,
			MaxIdleConnsPerHost:   idlePerWorker,
			ReadBufferSize:        64 << 10,
		}},
		workers: map[string]*workerState{},
		stop:    make(chan struct{}),
	}
	c.wg.Add(1)
	go c.heartbeatLoop()
	return c
}

// Close stops the heartbeat loop and closes idle dispatch connections.
// In-flight queries keep their streams until their fragments close.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	close(c.stop)
	c.wg.Wait()
	c.client.CloseIdleConnections()
}

// Register adds (or revives) a worker by dispatch address. Workers
// re-register periodically; that is idempotent.
func (c *Coordinator) Register(addr string) error {
	if addr == "" {
		return fmt.Errorf("dist: register: empty worker address")
	}
	if _, _, err := net.SplitHostPort(addr); err != nil {
		return fmt.Errorf("dist: register: bad worker address %q: %w", addr, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[addr]
	if !ok {
		w = &workerState{addr: addr}
		c.workers[addr] = w
		c.order = append(c.order, addr)
		c.m.workers.Set(int64(len(c.workers)))
	}
	if !w.live {
		w.live = true
		c.updateLiveLocked()
	}
	return nil
}

// Workers snapshots the registry for /debug/workers.
func (c *Coordinator) Workers() []WorkerInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]WorkerInfo, 0, len(c.workers))
	for _, w := range c.workers {
		out = append(out, WorkerInfo{Addr: w.addr, Live: w.live, Fragments: w.fragments, Failures: w.failures})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// LiveWorkers reports how many workers are currently passing heartbeats.
func (c *Coordinator) LiveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, w := range c.workers {
		if w.live {
			n++
		}
	}
	return n
}

func (c *Coordinator) updateLiveLocked() {
	n := 0
	for _, w := range c.workers {
		if w.live {
			n++
		}
	}
	c.m.workersLive.Set(int64(n))
}

// pickWorker returns the next live worker round-robin, preferring any
// worker other than avoid (the one that just failed the fragment).
func (c *Coordinator) pickWorker(avoid string) *workerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	var fallback *workerState
	for i := 0; i < len(c.order); i++ {
		w := c.workers[c.order[c.next%len(c.order)]]
		c.next++
		if !w.live {
			continue
		}
		if w.addr == avoid {
			fallback = w
			continue
		}
		return w
	}
	return fallback
}

// markLost records a dispatch failure against a worker and, because a
// lost fragment is strong evidence, takes the worker out of rotation
// until a heartbeat or re-registration revives it.
func (c *Coordinator) markLost(addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w, ok := c.workers[addr]; ok {
		w.failures++
		if w.live {
			w.live = false
			c.updateLiveLocked()
		}
	}
}

// heartbeatLoop probes every registered worker's /healthz.
func (c *Coordinator) heartbeatLoop() {
	defer c.wg.Done()
	// The probe deadline is floored well above the interval's lower
	// bounds: a worker busy streaming fragments answers /healthz slowly,
	// and a slow answer must not read as death.
	probeTimeout := c.cfg.HeartbeatEvery
	if probeTimeout < 2*time.Second {
		probeTimeout = 2 * time.Second
	}
	client := &http.Client{Timeout: probeTimeout}
	tick := time.NewTicker(c.cfg.HeartbeatEvery)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
		}
		c.mu.Lock()
		addrs := append([]string(nil), c.order...)
		c.mu.Unlock()
		for _, addr := range addrs {
			ok := false
			resp, err := client.Get("http://" + addr + "/healthz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				ok = resp.StatusCode == http.StatusOK
			}
			if !ok {
				c.m.heartbeatKO.Inc()
			}
			c.mu.Lock()
			if w := c.workers[addr]; w != nil && w.live != ok {
				w.live = ok
				c.updateLiveLocked()
				if !ok {
					c.cfg.Log.Printf("dist: worker %s failed heartbeat", addr)
				}
			}
			c.mu.Unlock()
		}
	}
}

// dispatch POSTs one fragment spec to a worker and returns the
// response body: the fragment's frame stream. A transport failure or a
// refusal is returned; retryability is the caller's call. Canceling ctx
// cuts the stream.
func (c *Coordinator) dispatch(ctx context.Context, worker string, spec FragmentSpec) (io.ReadCloser, error) {
	body, _ := json.Marshal(spec)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+worker+"/fragment", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("dist: dispatch to %s: %w", worker, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("dist: dispatch to %s: %w", worker, err)
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		if resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") != "" {
			return nil, fmt.Errorf("dist: worker %s refused for load (%w): %s", worker, errBusy, bytes.TrimSpace(msg))
		}
		if resp.StatusCode >= 500 {
			// The worker is unwell (stopping, failing), not refusing
			// this fragment in particular: worker-loss shaped, retryable
			// elsewhere.
			return nil, fmt.Errorf("dist: worker %s unavailable (%d): %s", worker, resp.StatusCode, string(bytes.TrimSpace(msg)))
		}
		return nil, &dispatchRejected{worker: worker, status: resp.StatusCode, msg: string(bytes.TrimSpace(msg))}
	}
	c.m.dispatched.Inc()
	c.mu.Lock()
	if w := c.workers[worker]; w != nil {
		w.fragments++
	}
	c.mu.Unlock()
	return resp.Body, nil
}

// errBusy marks a worker's refusal for load (503 with Retry-After): the
// worker is alive, so it stays in rotation.
var errBusy = errors.New("busy")

// dispatchRejected is a worker's synchronous refusal (4xx): the
// worker is alive and said no, so retrying the same spec elsewhere is
// pointless when the refusal is deterministic (bad plan, catalog skew).
type dispatchRejected struct {
	worker string
	status int
	msg    string
}

func (e *dispatchRejected) Error() string {
	return fmt.Sprintf("dist: worker %s rejected fragment (%d): %s", e.worker, e.status, e.msg)
}

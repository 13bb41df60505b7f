package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// request is one pre-built query with the result it must return.
type request struct {
	plan  string
	batch string // X-Volcano-Batch header value, "" for the server default
	want  expect
}

func newRequest(plan string, want expect) *request {
	return &request{plan: plan, want: want}
}

// trailer is the part of volcano-serve's closing status object the
// benchmark reads.
type trailer struct {
	Status string `json:"status"`
	Rows   int64  `json:"rows"`
	Error  string `json:"error"`
	Phases struct {
		PlanMs    float64 `json:"plan_ms"`
		QueuedMs  float64 `json:"queued_ms"`
		ExecuteMs float64 `json:"execute_ms"`
		StreamMs  float64 `json:"stream_ms"`
	} `json:"phases"`
	Resources struct {
		CPUSeconds      float64 `json:"cpu_seconds"`
		BufferFixes     int64   `json:"buffer_fixes"`
		BufferHits      int64   `json:"buffer_hits"`
		DeviceReads     int64   `json:"device_reads"`
		DeviceWrites    int64   `json:"device_writes"`
		ExchangePackets int64   `json:"exchange_packets"`
		ExchangeRecords int64   `json:"exchange_records"`
		BytesStreamed   int64   `json:"bytes_streamed"`
	} `json:"resources"`
	Dist struct {
		Retries       int64 `json:"retries"`
		WireRecvBytes int64 `json:"wire_recv_bytes"`
	} `json:"dist"`
	Analyze string `json:"analyze"`
}

// sample is one operation as the client saw it. Times are offsets from
// the moment the request was sent.
type sample struct {
	start                    time.Time
	ttfb, firstRow, lastByte time.Duration
	trailer                  trailer
	err                      error // nil when the response was complete and correct
}

// client is one closed-loop caller with its own keep-alive connection.
type client struct {
	hc   *http.Client
	url  string
	br   *bufio.Reader
	last []byte
}

func newClient(url string) *client {
	return &client{
		hc:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		url: url + "/query",
		br:  bufio.NewReaderSize(nil, 256<<10),
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one query and checks the whole response: status 200, a trailer
// with status ok, and the expected row count and checksum. Rows are counted
// and hashed as byte lines, with no JSON decoding; only the trailer is
// decoded. A non-empty queryID turns on the server's EXPLAIN ANALYZE.
func (c *client) do(r *request, queryID string) (s sample) {
	hreq, err := http.NewRequest(http.MethodPost, c.url, strings.NewReader(r.plan))
	if err != nil {
		s.err = err
		return s
	}
	if r.batch != "" {
		hreq.Header.Set("X-Volcano-Batch", r.batch)
	}
	if queryID != "" {
		hreq.Header.Set("X-Volcano-Query-Id", queryID)
		hreq.Header.Set("X-Volcano-Analyze", "1")
	}
	s.start = time.Now()
	resp, err := c.hc.Do(hreq)
	if err != nil {
		s.err = err
		return s
	}
	defer resp.Body.Close()
	s.ttfb = time.Since(s.start)

	c.br.Reset(resp.Body)
	var got expect
	var lastHash uint64
	for {
		line, err := c.br.ReadSlice('\n')
		if len(line) > 0 && err == nil {
			if got.rows == 0 {
				s.firstRow = time.Since(s.start)
			}
			line = line[:len(line)-1]
			lastHash = maphash.Bytes(hashSeed, line)
			got.rows++
			got.sum += lastHash
			c.last = append(c.last[:0], line...)
			continue
		}
		if err == io.EOF && len(line) == 0 {
			break
		}
		// An unterminated tail or a line longer than the buffer is a
		// broken stream either way.
		_, _ = io.Copy(io.Discard, resp.Body)
		s.err = fmt.Errorf("reading response: %v", err)
		return s
	}
	s.lastByte = time.Since(s.start)
	if got.rows == 0 {
		s.err = fmt.Errorf("status %d with an empty body", resp.StatusCode)
		return s
	}
	// The last line is the trailer, not a row.
	got.rows--
	got.sum -= lastHash
	if err := json.Unmarshal(c.last, &s.trailer); err != nil {
		s.err = fmt.Errorf("missing trailer: %v", err)
		return s
	}
	switch t := &s.trailer; {
	case resp.StatusCode != http.StatusOK || t.Status != "ok":
		s.err = fmt.Errorf("status %d %q: %s", resp.StatusCode, t.Status, t.Error)
	case got.rows != r.want.rows || t.Rows != r.want.rows:
		s.err = fmt.Errorf("%d rows streamed, trailer says %d, want %d", got.rows, t.Rows, r.want.rows)
	case got.sum != r.want.sum:
		s.err = fmt.Errorf("checksum mismatch over %d rows", got.rows)
	}
	return s
}

// window is what one timed pass of a workload produced.
type window struct {
	mu        sync.Mutex
	begin     time.Time
	elapsed   time.Duration
	cpu       float64 // CPU seconds the fleet used between begin and end
	attempted int
	failed    int
	firstErr  error
	// Per verified operation, in ms: send to last byte, to first line, to
	// response headers.
	lat, ttfr, ttfb []float64
	sums            trailerSums
}

// trailerSums accumulates the servers' own accounts over the verified
// operations of a window.
type trailerSums struct {
	planMs, queuedMs, executeMs, streamMs []float64
	cpuSeconds                            float64
	fixes, hits, reads, writes            int64
	xPackets, xRecords                    int64
	wireBytes, retries                    int64
}

func (w *window) add(s *sample) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.attempted++
	if s.err != nil {
		w.failed++
		if w.firstErr == nil {
			w.firstErr = s.err
		}
		return
	}
	w.lat = append(w.lat, ms(s.lastByte))
	w.ttfr = append(w.ttfr, ms(s.firstRow))
	w.ttfb = append(w.ttfb, ms(s.ttfb))
	t, a := &s.trailer, &w.sums
	a.planMs = append(a.planMs, t.Phases.PlanMs)
	a.queuedMs = append(a.queuedMs, t.Phases.QueuedMs)
	a.executeMs = append(a.executeMs, t.Phases.ExecuteMs)
	a.streamMs = append(a.streamMs, t.Phases.StreamMs)
	a.cpuSeconds += t.Resources.CPUSeconds
	a.fixes += t.Resources.BufferFixes
	a.hits += t.Resources.BufferHits
	a.reads += t.Resources.DeviceReads
	a.writes += t.Resources.DeviceWrites
	a.xPackets += t.Resources.ExchangePackets
	a.xRecords += t.Resources.ExchangeRecords
	a.wireBytes += t.Dist.WireRecvBytes
	a.retries += t.Dist.Retries
}

func (w *window) ok() int { return w.attempted - w.failed }

// opsPerS is the verified operations per second of the whole window.
func (w *window) opsPerS() float64 { return float64(w.ok()) / w.elapsed.Seconds() }

// runWindow drives one closed loop per sequence for d: each client sends
// its next request only after it has read and checked the previous
// response to the end. The fleet's CPU time is read before and after. With
// a tracer every operation carries a query id and is recorded as spans.
func runWindow(ctx context.Context, f *fleet, seqs [][]*request, d time.Duration, tr *tracer) (*window, error) {
	w := &window{begin: time.Now()}
	cpu0, err := f.cpuSeconds()
	if err != nil {
		return w, err
	}
	var wg sync.WaitGroup
	for ci, seq := range seqs {
		wg.Add(1)
		go func(ci int, seq []*request) {
			defer wg.Done()
			c := newClient(f.url())
			defer c.close()
			for i := 0; time.Since(w.begin) < d && ctx.Err() == nil; i++ {
				r := seq[i%len(seq)]
				id := ""
				if tr != nil {
					id = fmt.Sprintf("bench-c%d-%d", ci, i)
				}
				s := c.do(r, id)
				w.add(&s)
				if tr != nil {
					tr.operation(ci, id, r, &s)
				}
			}
		}(ci, seq)
	}
	wg.Wait()
	w.elapsed = time.Since(w.begin)
	cpu1, err := f.cpuSeconds()
	w.cpu = cpu1 - cpu0
	return w, err
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// percentile returns the p-th percentile (0..1) of xs by nearest rank; xs
// is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(p*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

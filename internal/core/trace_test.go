package core

import (
	"strings"
	"testing"

	"repro/internal/record"
	"repro/internal/trace"
)

// traceNames flattens a tracer's snapshot into the set of event names and
// the per-name count.
func traceNames(tr *trace.Tracer) map[string]int {
	names := map[string]int{}
	for _, s := range tr.Snapshot() {
		for _, e := range s.Events {
			names[e.Name]++
		}
	}
	return names
}

// TestExchangeTraceProtocol runs a traced parallel exchange with a tight
// flow-control window and checks the whole protocol vocabulary shows up:
// spawn, producer starts, packet flows, token waits, EOS tags, and the
// shutdown handshake.
func TestExchangeTraceProtocol(t *testing.T) {
	env := newTestEnv(t, 256)
	f := env.makeInts(t, "t", shuffled(500, 7)...)
	tr := trace.New()
	x, err := NewExchange(ExchangeConfig{
		Schema:      intSchema,
		Producers:   2,
		Consumers:   1,
		PacketSize:  8,
		FlowControl: true,
		Slack:       1, // one token: producers must block, so token-wait spans appear
		Tracer:      tr,
		NewProducer: func(int) (Iterator, error) {
			return NewFileScan(f, nil, false)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(x.Consumer(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1000 {
		t.Fatalf("rows = %d", len(rows))
	}

	names := traceNames(tr)
	for _, want := range []string{
		"fork", "producer-start", "open-subtree", "produce",
		"push", "pop", "token-wait", "eos",
		"await-close", "allow-close", "await-producers", "close-subtree",
	} {
		if names[want] == 0 {
			t.Errorf("no %q event recorded; got %v", want, names)
		}
	}
	if names["producer-start"] != 2 {
		t.Errorf("producer-start count = %d, want 2", names["producer-start"])
	}

	// Each producer and the consumer own distinct tracks. (The exchange id
	// prefix varies across tests, so match on the suffix.)
	trackNames := map[string]bool{}
	for _, s := range tr.Snapshot() {
		trackNames[s.Name] = true
	}
	for _, want := range []string{".master", ".producer0", ".producer1", ".consumer0"} {
		found := false
		for n := range trackNames {
			if strings.HasSuffix(n, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("no track ending in %q; have %v", want, trackNames)
		}
	}

	// Every flow arrow tail has a matching head with the same id.
	tails, heads := map[int64]int{}, map[int64]int{}
	for _, s := range tr.Snapshot() {
		for _, e := range s.Events {
			switch e.Ph {
			case trace.PhaseFlowStart:
				tails[e.ID]++
			case trace.PhaseFlowEnd:
				heads[e.ID]++
			}
		}
	}
	if len(tails) == 0 {
		t.Fatal("no flow arrows recorded")
	}
	for id := range tails {
		if heads[id] != 1 {
			t.Errorf("flow %d: %d heads, want 1", id, heads[id])
		}
	}
}

// TestExchangeTraceTreeFork checks the propagation-tree scheme records a
// fork on producer tracks (each non-leaf producer forks its successor),
// not only on the master.
func TestExchangeTraceTreeFork(t *testing.T) {
	env := newTestEnv(t, 256)
	f := env.makeInts(t, "t", shuffled(200, 9)...)
	tr := trace.New()
	x, err := NewExchange(ExchangeConfig{
		Schema:    intSchema,
		Producers: 4,
		Consumers: 1,
		Fork:      ForkTree,
		Tracer:    tr,
		NewProducer: func(int) (Iterator, error) {
			return NewFileScan(f, nil, false)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(x.Consumer(0), 0); err != nil {
		t.Fatal(err)
	}
	forksOnProducers := 0
	for _, s := range tr.Snapshot() {
		if !strings.Contains(s.Name, "producer") {
			continue
		}
		for _, e := range s.Events {
			if e.Name == "fork" {
				forksOnProducers++
			}
		}
	}
	if forksOnProducers == 0 {
		t.Error("propagation tree recorded no forks on producer tracks")
	}
}

// TestNetExchangeTraceProtocol checks the shared-nothing exchange records
// wire sends/receives bound by flow arrows, with producer and consumer
// tracks on distinct per-site pids.
func TestNetExchangeTraceProtocol(t *testing.T) {
	machineA := newTestEnv(t, 256)
	machineB := newTestEnv(t, 256)
	f := machineA.makeInts(t, "t", shuffled(400, 13)...)
	tr := trace.New()
	x, err := NewNetExchange(NetExchangeConfig{
		Schema:     intSchema,
		Producers:  2,
		Consumers:  1,
		PacketSize: 16,
		Tracer:     tr,
		NewProducer: func(g int) (Iterator, error) {
			return NewFileScan(f, nil, false)
		},
		ConsumerEnv: func(int) *Env { return machineB.Env },
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(x.Consumer(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 800 {
		t.Fatalf("rows = %d", len(rows))
	}

	names := traceNames(tr)
	for _, want := range []string{"producer-start", "wire-send", "wire-recv", "eos", "produce"} {
		if names[want] == 0 {
			t.Errorf("no %q event recorded; got %v", want, names)
		}
	}
	// Sites are separate machines: all pids distinct, none on pid 0.
	pids := map[int]bool{}
	for _, s := range tr.Snapshot() {
		if s.PID == 0 {
			t.Errorf("track %s on pid 0; sites must get their own pid", s.Name)
		}
		if pids[s.PID] {
			t.Errorf("pid %d reused across sites", s.PID)
		}
		pids[s.PID] = true
	}
	if len(pids) != 3 {
		t.Errorf("got %d site pids, want 3", len(pids))
	}
	if packets, bytes := x.Stats(); packets == 0 || bytes == 0 {
		t.Error("no wire traffic counted")
	}
}

// countRec is a no-allocation source for the overhead benchmark and test.
type countRec struct {
	n, limit int
}

func (c *countRec) Schema() *record.Schema { return intSchema }
func (c *countRec) Open() error            { c.n = 0; return nil }
func (c *countRec) Close() error           { return nil }
func (c *countRec) NextBatch(b *Batch) error {
	b.Reset()
	for !b.Full() && c.n < c.limit {
		c.n++
		b.Append(Rec{})
	}
	return nil
}

// TestInstrumentedDisabledTracerNoAllocs pins the disabled-tracing cost on
// the instrumented NextBatch hot path: zero allocations per call.
func TestInstrumentedDisabledTracerNoAllocs(t *testing.T) {
	it := Instrument(&countRec{limit: 1 << 30}, "src").WithTracer(nil)
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	b := NewBatch(1)
	allocs := testing.AllocsPerRun(1000, func() {
		if err := it.NextBatch(b); b.Len() == 0 || err != nil {
			t.Fatal("source ended")
		}
	})
	if allocs != 0 {
		t.Errorf("disabled-tracer NextBatch allocates %.1f per call, want 0", allocs)
	}
}

// BenchmarkInstrumentedNext measures the per-call cost of the instrumented
// hot path with tracing disabled (the mode every non-traced run pays).
func BenchmarkInstrumentedNext(b *testing.B) {
	it := Instrument(&countRec{limit: 1 << 62}, "src").WithTracer(nil)
	if err := it.Open(); err != nil {
		b.Fatal(err)
	}
	defer it.Close()
	batch := NewBatch(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it.NextBatch(batch)
	}
}

// TestInstrumentedTraceSpans checks the enabled wrapper registers one
// track per operator and emits open/NextBatch/close spans on it.
func TestInstrumentedTraceSpans(t *testing.T) {
	tr := trace.New()
	it := Instrument(&countRec{limit: 3}, "src").WithTracer(tr)
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	for b := NewBatch(1); ; {
		if err := it.NextBatch(b); err != nil || b.Len() == 0 {
			break
		}
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	snaps := tr.Snapshot()
	if len(snaps) != 1 || snaps[0].Name != "op:src" {
		t.Fatalf("tracks = %+v", snaps)
	}
	names := traceNames(tr)
	if names["src.open"] != 1 || names["src.close"] != 1 {
		t.Errorf("open/close spans missing: %v", names)
	}
	if names["src"] != 4 { // 3 rows + EOS call
		t.Errorf("next spans = %d, want 4", names["src"])
	}
}

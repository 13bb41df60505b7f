package core

import (
	"errors"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/record"
)

// Metamorphic property of the batch protocol: the batch size is an
// execution parameter, never a semantic one. Every operator must produce
// the same result set at batch size 1, 2, 7 and the default window as it
// does record-at-a-time, and size 1 must match the row-at-a-time shim
// call for call. These tests drive the operators directly (the plan-level
// differential harness covers whole trees).

// metaBatchSizes: the degenerate size, the smallest non-trivial size, a
// prime that forces partial final batches, and the default window.
var metaBatchSizes = []int{1, 2, 7, DefaultBatchSize}

// renderRows canonicalises decoded rows for order-insensitive comparison.
func renderRows(rows [][]record.Value) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = v.String()
		}
		out[i] = strings.Join(cells, "\x1f")
	}
	sort.Strings(out)
	return out
}

// enableAll switches it (and nothing else — makers enable their inputs
// themselves when they want deeper coverage) to batch-consume mode.
func enableAll(it Iterator, size int) {
	if bc, ok := it.(BatchConfigurable); ok && size > 0 {
		bc.EnableBatch(size)
	}
}

func TestBatchSizeMetamorphic(t *testing.T) {
	env := newTestEnv(t, 1024)
	ints := env.makeInts(t, "ints", shuffled(500, 41)...)
	emp := env.makeEmp(t, "emp", 100, 4)
	left := env.makePairs(t, "left", func() [][2]int64 {
		var ps [][2]int64
		for i := int64(0); i < 60; i++ {
			ps = append(ps, [2]int64{i % 7, i})
		}
		return ps
	}())
	right := env.makePairs(t, "right", func() [][2]int64 {
		var ps [][2]int64
		for i := int64(0); i < 40; i++ {
			ps = append(ps, [2]int64{i % 5, 100 + i})
		}
		return ps
	}())

	// Each maker builds a fresh operator (iterators are single-use) wired
	// for the given batch size; size 0 means classic row mode.
	cases := []struct {
		name string
		mk   func(size int) (Iterator, error)
	}{
		{"filescan", func(int) (Iterator, error) {
			return NewFileScan(ints, nil, false)
		}},
		{"filter", func(size int) (Iterator, error) {
			f, err := NewFilterExpr(scanOf(t, ints), "v % 3 = 1", expr.Compiled)
			if err == nil {
				enableAll(f, size)
			}
			return f, err
		}},
		{"project", func(size int) (Iterator, error) {
			p, err := NewProjectExprs(env.Env, scanOf(t, ints), []string{"v * 2 + 1"}, []string{"x"}, expr.Interpreted)
			if err == nil {
				enableAll(p, size)
			}
			return p, err
		}},
		{"sort", func(size int) (Iterator, error) {
			s := NewSort(env.Env, scanOf(t, ints), []record.SortSpec{{Field: 0, Desc: true}})
			enableAll(s, size)
			return s, nil
		}},
		{"hash-aggregate", func(size int) (Iterator, error) {
			a, err := NewHashAggregate(env.Env, scanOf(t, emp), record.Key{1}, []AggSpec{
				{Func: AggCount, Name: "n"}, {Func: AggSum, Field: 2, Name: "s"}, {Func: AggMax, Field: 0, Name: "m"},
			})
			if err == nil {
				enableAll(a, size)
			}
			return a, err
		}},
		{"sort-aggregate", func(size int) (Iterator, error) {
			a, err := NewSortAggregate(env.Env, scanOf(t, emp), record.Key{1}, []AggSpec{
				{Func: AggCount, Name: "n"}, {Func: AggAvg, Field: 2, Name: "a"}, {Func: AggMin, Field: 0, Name: "m"},
			})
			if err == nil {
				enableAll(a, size)
			}
			return a, err
		}},
		{"hash-match", func(size int) (Iterator, error) {
			m, err := NewHashMatch(env.Env, MatchJoin, scanOf(t, left), scanOf(t, right), record.Key{0}, record.Key{0})
			if err == nil {
				enableAll(m, size)
			}
			return m, err
		}},
		{"merge-match", func(size int) (Iterator, error) {
			m, err := NewMergeMatch(env.Env, MatchJoin, scanOf(t, left), scanOf(t, right), record.Key{0}, record.Key{0})
			if err == nil {
				enableAll(m, size)
			}
			return m, err
		}},
		{"hash-division", func(size int) (Iterator, error) {
			// No native NextBatch: proves the row→batch shim conforms.
			enr := env.makePairs(t, "enr"+string(rune('a'+size%32)), [][2]int64{
				{1, 1}, {1, 2}, {2, 1}, {3, 1}, {3, 2}, {4, 2},
			})
			req := env.makeInts(t, "req"+string(rune('a'+size%32)), 1, 2)
			return NewHashDivision(env.Env, scanOf(t, enr), scanOf(t, req), record.Key{0}, record.Key{1}, record.Key{0})
		}},
		{"choose-plan", func(size int) (Iterator, error) {
			alts := make([]Iterator, 2)
			for i := range alts {
				f, err := NewFilterExpr(scanOf(t, ints), "v < 100", expr.Interpreted)
				if err != nil {
					return nil, err
				}
				enableAll(f, size)
				alts[i] = f
			}
			return NewChoosePlan(alts, func() (int, error) { return 1, nil })
		}},
		{"exchange", func(size int) (Iterator, error) {
			x, err := NewExchange(ExchangeConfig{
				Schema:      intSchema,
				Producers:   3,
				Consumers:   1,
				PacketSize:  5,
				FlowControl: true,
				Slack:       2,
				BatchSize:   size,
				NewProducer: func(g int) (Iterator, error) { return NewFileScan(ints, nil, false) },
			})
			if err != nil {
				return nil, err
			}
			return x.Consumer(0), nil
		}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref, err := tc.mk(0)
			if err != nil {
				t.Fatal(err)
			}
			rowRows, err := Collect(ref)
			if err != nil {
				t.Fatalf("row mode: %v", err)
			}
			if len(rowRows) == 0 {
				t.Fatal("row mode produced no rows — case is vacuous")
			}
			want := renderRows(rowRows)
			for _, size := range metaBatchSizes {
				it, err := tc.mk(size)
				if err != nil {
					t.Fatal(err)
				}
				batchRows, err := CollectBatch(it, size)
				if err != nil {
					t.Fatalf("batch size %d: %v", size, err)
				}
				got := renderRows(batchRows)
				if len(got) != len(want) {
					t.Fatalf("batch size %d: %d rows, row mode gave %d", size, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("batch size %d: row %d differs:\n got %q\nwant %q", size, i, got[i], want[i])
					}
				}
			}
			env.checkNoPinLeak(t)
		})
	}
}

// TestBatchSizeOneMatchesRowShim drives a native NextBatch implementation
// at size 1 against the row-at-a-time shim over an identical operator:
// the sequences must agree refill for refill — same record payload, same
// order, same end of stream.
func TestBatchSizeOneMatchesRowShim(t *testing.T) {
	env := newTestEnv(t, 512)
	ints := env.makeInts(t, "ints", shuffled(300, 42)...)

	mk := func() BatchIterator {
		s := NewSort(env.Env, scanOf(t, ints), []record.SortSpec{{Field: 0}})
		return s // Sort implements NextBatch natively
	}
	native := mk()
	shim := &rowBatcher{Iterator: mk()}
	if err := native.Open(); err != nil {
		t.Fatal(err)
	}
	if err := shim.Open(); err != nil {
		t.Fatal(err)
	}
	nb, sb := NewBatch(1), NewBatch(1)
	for step := 0; ; step++ {
		if err := native.NextBatch(nb); err != nil {
			t.Fatalf("step %d: native: %v", step, err)
		}
		if err := shim.NextBatch(sb); err != nil {
			t.Fatalf("step %d: shim: %v", step, err)
		}
		if nb.Len() != sb.Len() {
			t.Fatalf("step %d: native returned %d records, shim %d", step, nb.Len(), sb.Len())
		}
		if nb.Len() == 0 {
			break
		}
		for i := range nb.Recs() {
			if string(nb.Recs()[i].Data) != string(sb.Recs()[i].Data) {
				t.Fatalf("step %d record %d: native %x, shim %x", step, i, nb.Recs()[i].Data, sb.Recs()[i].Data)
			}
		}
		nb.Release()
		sb.Release()
	}
	if err := native.Close(); err != nil {
		t.Fatal(err)
	}
	if err := shim.Close(); err != nil {
		t.Fatal(err)
	}
	env.checkNoPinLeak(t)
}

// TestFilterNextBatchEarlyReturnAndClose stops a batch filter mid-input-
// batch: each NextBatch returns on a full output batch with the tail of
// its input batch unjudged, and by then the call's rejects are released
// already, so the pins held are exactly the output, that tail and the
// scan's own page pin. Close in the same state leaves no pin at all.
func TestFilterNextBatchEarlyReturnAndClose(t *testing.T) {
	env := newTestEnv(t, 512)
	ints := env.makeInts(t, "ints", shuffled(500, 43)...)
	f, err := NewFilterExpr(scanOf(t, ints), "v % 3 = 1", expr.Compiled)
	if err != nil {
		t.Fatal(err)
	}
	f.EnableBatch(DefaultBatchSize)
	if err := f.Open(); err != nil {
		t.Fatal(err)
	}
	b := NewBatch(5)
	for call := 0; call < 3; call++ {
		if err := f.NextBatch(b); err != nil {
			t.Fatal(err)
		}
		if b.Len() != 5 {
			t.Fatalf("call %d: %d records, want a full batch of 5", call, b.Len())
		}
		for _, r := range b.Recs() {
			if v, _ := intSchema.Get(r.Data, 0); v.I%3 != 1 {
				t.Fatalf("call %d: record %d passed the filter", call, v.I)
			}
		}
		tail := f.inb.Len() - f.inpos
		if tail == 0 {
			t.Fatalf("call %d: input batch fully judged; the case needs a partial one", call)
		}
		if got, want := env.pool.Stats().CurrentlyFixedHint, int64(b.Len()+tail+1); got != want {
			t.Fatalf("call %d: %d pins held, want %d (output %d + unjudged %d + scan page 1)", call, got, want, b.Len(), tail)
		}
		b.Release()
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	env.checkNoPinLeak(t)
}

// TestExchangeConsumerNextBatchZeroAlloc is the batch-mode counterpart of
// TestExchangeConsumerNextZeroAlloc: with a zero-alloc source, batch-mode
// producers drawing from the hub's batch free list, and packet lending on
// the consumer side, the steady-state NextBatch cycle must not allocate
// at all — per *batch*, not just per record.
func TestExchangeConsumerNextBatchZeroAlloc(t *testing.T) {
	done := make(chan struct{})
	x, err := NewExchange(ExchangeConfig{
		Schema:      intSchema,
		Producers:   1,
		Consumers:   1,
		PacketSize:  83,
		FlowControl: true,
		Slack:       4,
		BatchSize:   83,
		Done:        done,
		NewProducer: func(g int) (Iterator, error) { return &staticSource{rec: staticIntRec()}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	c := x.Consumer(0)
	bi, ok := c.(BatchIterator)
	if !ok {
		t.Fatal("exchange consumer does not implement NextBatch natively")
	}
	if err := c.Open(); err != nil {
		t.Fatal(err)
	}
	b := NewBatch(83)
	pull := func() {
		if err := bi.NextBatch(b); err != nil {
			t.Fatalf("nextbatch: %v", err)
		}
		if b.Len() == 0 {
			t.Fatal("unexpected end of stream")
		}
		b.Release() // static records carry no pins; Release must stay alloc-free
	}
	// Warm the packet pool and reach steady state.
	for i := 0; i < 500; i++ {
		pull()
	}
	const perRun = 100
	avg := testing.AllocsPerRun(20, func() {
		for i := 0; i < perRun; i++ {
			pull()
		}
	})
	if perBatch := avg / perRun; perBatch > 0.01 {
		t.Fatalf("consumer NextBatch allocates %.4f objects per batch (%.1f per run), want 0 amortised", perBatch, avg)
	}
	close(done)
	for {
		if err := bi.NextBatch(b); err != nil || b.Len() == 0 {
			break
		}
		b.Release()
	}
	if err := c.Close(); err != nil && !errors.Is(err, ErrCanceled) {
		t.Fatalf("close: %v", err)
	}
}

// TestBatchPoolRecycling proves the free list carries the steady state:
// hammered from several goroutines, a warmed pool serves gets from
// recycled batches, and the counters pair exactly with the traffic.
func TestBatchPoolRecycling(t *testing.T) {
	pool := NewBatchPool(8, 16)
	const (
		workers = 4
		rounds  = 5000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := staticIntRec()
			for i := 0; i < rounds; i++ {
				b := pool.Get()
				for !b.Full() {
					b.Append(rec)
				}
				pool.Put(b)
			}
		}()
	}
	wg.Wait()
	hits, misses, discards := pool.Stats()
	if got := hits + misses; got != workers*rounds {
		t.Fatalf("gets recorded %d, want %d", got, workers*rounds)
	}
	if hits == 0 {
		t.Fatal("pool recorded no hits: batches are not being recycled")
	}
	// With 4 workers over an 8-slot list, misses are the cold start plus
	// rare contention windows, never the steady state.
	if misses*4 > hits {
		t.Fatalf("misses %d vs hits %d: free list is not retaining batches", misses, hits)
	}
	if discards > misses {
		t.Fatalf("discards %d exceed misses %d: puts outnumber takes", discards, misses)
	}
}

// TestBatchExchangeRecycleShutdownStress mirrors
// TestExchangeRecycleShutdownStress for the batch protocol: batch-mode
// producers draw pull batches from the hub's free list and route whole
// refills while one of two batch-draining consumers closes early
// mid-stream. Under -race this proves the batch pool's exclusive-owner
// rule and the consumer-side packet lending survive concurrent teardown;
// afterwards every batch the producers took is accounted for and no pin
// leaks.
func TestBatchExchangeRecycleShutdownStress(t *testing.T) {
	env := newTestEnv(t, 2048)
	const n = 2000
	f := env.makeInts(t, "t", shuffled(n, 43)...)
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
			BatchSize:   5,
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
				src := AsBatch(c)
				b := NewBatch(5)
				// Consumer 0 walks away mid-stream at a varying point;
				// consumer 1 drains everything routed to it.
				limit := -1
				if ci == 0 {
					limit = 5 * (iter%7 + 1)
				}
				got := 0
				for limit < 0 || got < limit {
					if err := src.NextBatch(b); err != nil {
						errs <- err
						return
					}
					if b.Len() == 0 {
						break
					}
					got += b.Len()
					b.Release()
				}
				b.Release()
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
		st := x.Stats()
		// Every producer takes exactly one pull batch from the free list.
		if got := st.BatchPoolHits + st.BatchPoolMisses; got != 4 {
			t.Fatalf("iter %d: batch pool gets = %d, want 4 (one per producer)", iter, got)
		}
		env.checkNoPinLeak(t)
	}
}

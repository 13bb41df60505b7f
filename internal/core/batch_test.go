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

// Metamorphic property of the iterator protocol: the batch size is an
// execution parameter, never a semantic one. Every operator must produce
// the same result set at batch size 2, 7 and the default window as at
// size 1, record-at-a-time, and size 1 must hand out one record per
// call. These tests drive the operators directly (the plan-level
// differential harness covers whole trees).

// metaBatchSizes: the smallest non-trivial size, a prime that forces
// partial final batches, and the default window; size 1 is the reference.
var metaBatchSizes = []int{2, 7, DefaultBatchSize}

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

	// Each maker builds a fresh operator (iterators are single-use) over
	// an Env of the given batch size.
	cases := []struct {
		name string
		mk   func(e *Env, size int) (Iterator, error)
	}{
		{"filescan", func(*Env, int) (Iterator, error) {
			return NewFileScan(ints, nil, false)
		}},
		{"filter", func(e *Env, _ int) (Iterator, error) {
			return NewFilterExpr(e, scanOf(t, ints), "v % 3 = 1", expr.Compiled)
		}},
		{"project", func(e *Env, _ int) (Iterator, error) {
			return NewProjectExprs(e, scanOf(t, ints), []string{"v * 2 + 1"}, []string{"x"}, expr.Interpreted)
		}},
		{"sort", func(e *Env, _ int) (Iterator, error) {
			return NewSort(e, scanOf(t, ints), []record.SortSpec{{Field: 0, Desc: true}}), nil
		}},
		{"hash-aggregate", func(e *Env, _ int) (Iterator, error) {
			return NewHashAggregate(e, scanOf(t, emp), record.Key{1}, []AggSpec{
				{Func: AggCount, Name: "n"}, {Func: AggSum, Field: 2, Name: "s"}, {Func: AggMax, Field: 0, Name: "m"},
			})
		}},
		{"sort-aggregate", func(e *Env, _ int) (Iterator, error) {
			return NewSortAggregate(e, scanOf(t, emp), record.Key{1}, []AggSpec{
				{Func: AggCount, Name: "n"}, {Func: AggAvg, Field: 2, Name: "a"}, {Func: AggMin, Field: 0, Name: "m"},
			})
		}},
		{"hash-match", func(e *Env, _ int) (Iterator, error) {
			return NewHashMatch(e, MatchJoin, scanOf(t, left), scanOf(t, right), record.Key{0}, record.Key{0})
		}},
		{"merge-match", func(e *Env, _ int) (Iterator, error) {
			return NewMergeMatch(e, MatchJoin, scanOf(t, left), scanOf(t, right), record.Key{0}, record.Key{0})
		}},
		{"hash-division", func(e *Env, size int) (Iterator, error) {
			enr := env.makePairs(t, "enr"+string(rune('a'+size%32)), [][2]int64{
				{1, 1}, {1, 2}, {2, 1}, {3, 1}, {3, 2}, {4, 2},
			})
			req := env.makeInts(t, "req"+string(rune('a'+size%32)), 1, 2)
			return NewHashDivision(e, scanOf(t, enr), scanOf(t, req), record.Key{0}, record.Key{1}, record.Key{0})
		}},
		{"choose-plan", func(e *Env, _ int) (Iterator, error) {
			alts := make([]Iterator, 2)
			for i := range alts {
				f, err := NewFilterExpr(e, scanOf(t, ints), "v < 100", expr.Interpreted)
				if err != nil {
					return nil, err
				}
				alts[i] = f
			}
			return NewChoosePlan(alts, func() (int, error) { return 1, nil })
		}},
		{"exchange", func(_ *Env, size int) (Iterator, error) {
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
			collect := func(size int) []string {
				t.Helper()
				it, err := tc.mk(env.Env.WithBatchSize(size), size)
				if err != nil {
					t.Fatal(err)
				}
				rows, err := Collect(it, size)
				if err != nil {
					t.Fatalf("batch size %d: %v", size, err)
				}
				return renderRows(rows)
			}
			want := collect(1)
			if len(want) == 0 {
				t.Fatal("batch size 1 produced no rows — case is vacuous")
			}
			for _, size := range metaBatchSizes {
				got := collect(size)
				if len(got) != len(want) {
					t.Fatalf("batch size %d: %d rows, batch size 1 gave %d", size, len(got), len(want))
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

// TestBatchSizeOneMatchesSizeN drives one sort at batch size 1 and an
// identical one at size 7 through a cursor: the record sequences must
// agree record for record — same payload, same order, same end of
// stream — and every size-1 call must carry exactly one record.
func TestBatchSizeOneMatchesSizeN(t *testing.T) {
	env := newTestEnv(t, 512)
	ints := env.makeInts(t, "ints", shuffled(300, 42)...)
	mk := func(size int) *Sort {
		return NewSort(env.Env.WithBatchSize(size), scanOf(t, ints), []record.SortSpec{{Field: 0}})
	}
	one, many := mk(1), mk(7)
	if err := one.Open(); err != nil {
		t.Fatal(err)
	}
	if err := many.Open(); err != nil {
		t.Fatal(err)
	}
	b, cur := NewBatch(1), NewCursor(many, 7)
	for step := 0; ; step++ {
		if err := one.NextBatch(b); err != nil {
			t.Fatalf("step %d: size 1: %v", step, err)
		}
		r, ok, err := cur.Pull()
		if err != nil {
			t.Fatalf("step %d: size 7: %v", step, err)
		}
		if b.Len() > 1 || (b.Len() == 1) != ok {
			t.Fatalf("step %d: size 1 returned %d records, size 7 ok=%v", step, b.Len(), ok)
		}
		if !ok {
			break
		}
		if string(b.Recs()[0].Data) != string(r.Data) {
			t.Fatalf("step %d: size 1 %x, size 7 %x", step, b.Recs()[0].Data, r.Data)
		}
		b.Release()
		r.Unfix()
	}
	cur.Release()
	if err := one.Close(); err != nil {
		t.Fatal(err)
	}
	if err := many.Close(); err != nil {
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
	f, err := NewFilterExpr(env.Env, scanOf(t, ints), "v % 3 = 1", expr.Compiled)
	if err != nil {
		t.Fatal(err)
	}
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

// TestExchangeConsumerNextBatchZeroAlloc is the per-batch counterpart of
// TestExchangeConsumerNextZeroAlloc: with a zero-alloc source, producers
// drawing from the hub's batch free list, and packet lending on the
// consumer side, the steady-state NextBatch cycle must not allocate at
// all — per *batch*, not just per record.
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
	if err := c.Open(); err != nil {
		t.Fatal(err)
	}
	b := NewBatch(83)
	pull := func() {
		if err := c.NextBatch(b); err != nil {
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
		if err := c.NextBatch(b); err != nil || b.Len() == 0 {
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
// TestExchangeRecycleShutdownStress at batch size 5: producers draw pull batches from the hub's free list and route whole
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
				b := NewBatch(5)
				// Consumer 0 walks away mid-stream at a varying point;
				// consumer 1 drains everything routed to it.
				limit := -1
				if ci == 0 {
					limit = 5 * (iter%7 + 1)
				}
				got := 0
				for limit < 0 || got < limit {
					if err := c.NextBatch(b); err != nil {
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

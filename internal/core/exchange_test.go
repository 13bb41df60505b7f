package core

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/record"
	"repro/internal/storage/file"
)

// intSchema matches makeInts tables.
var intSchema = record.MustSchema(record.Field{Name: "v", Type: record.TInt})

// makePartitionedInts creates nparts files, value i going to file i%nparts.
func (e *testEnv) makePartitionedInts(t testing.TB, prefix string, n, nparts int) []*file.File {
	t.Helper()
	files := make([]*file.File, nparts)
	for p := range files {
		f, err := e.base.Create(prefix+string(rune('0'+p)), intSchema)
		if err != nil {
			t.Fatal(err)
		}
		files[p] = f
	}
	for i := 0; i < n; i++ {
		data := intSchema.MustEncode(record.Int(int64(i)))
		if _, err := files[i%nparts].Insert(data); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// collectConcurrently runs one goroutine per consumer endpoint and merges
// the collected int columns.
func collectConcurrently(t *testing.T, its []Iterator) [][]int64 {
	t.Helper()
	out := make([][]int64, len(its))
	errs := make([]error, len(its))
	var wg sync.WaitGroup
	for i, it := range its {
		wg.Add(1)
		go func(i int, it Iterator) {
			defer wg.Done()
			rows, err := Collect(it, 0)
			if err != nil {
				errs[i] = err
				return
			}
			out[i] = intsOf(rows, 0)
		}(i, it)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("consumer %d: %v", i, err)
		}
	}
	return out
}

func TestExchangeVerticalPipeline(t *testing.T) {
	// One producer, one consumer: plain pipelining between "processes".
	env := newTestEnv(t, 256)
	f := env.makeInts(t, "t", shuffled(1000, 2)...)
	x, err := NewExchange(ExchangeConfig{
		Schema:    intSchema,
		Producers: 1,
		Consumers: 1,
		NewProducer: func(int) (Iterator, error) {
			return NewFileScan(f)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(x.Consumer(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(sortedInts(intsOf(rows, 0)), sortedInts(shuffled(1000, 2))) {
		t.Fatal("records lost or duplicated through exchange")
	}
	st := x.Stats()
	if st.Records != 1000 || st.Packets < 1000/83 {
		t.Fatalf("stats = %+v", st)
	}
	env.checkNoPinLeak(t)
}

func TestExchangeIntraOperatorParallelism(t *testing.T) {
	// Four producers scanning partitioned files into one consumer.
	env := newTestEnv(t, 512)
	const n = 2000
	files := env.makePartitionedInts(t, "p", n, 4)
	x, err := NewExchange(ExchangeConfig{
		Schema:    intSchema,
		Producers: 4,
		Consumers: 1,
		NewProducer: func(g int) (Iterator, error) {
			return NewFileScan(files[g])
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(x.Consumer(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	got := sortedInts(intsOf(rows, 0))
	want := make([]int64, n)
	for i := range want {
		want[i] = int64(i)
	}
	if !equalInts(got, want) {
		t.Fatalf("lost/duplicated records: %d of %d", len(got), n)
	}
	env.checkNoPinLeak(t)
}

func TestExchangeHashPartitioning(t *testing.T) {
	// 3 producers -> 3 consumers, hash partitioned: every consumer sees
	// exactly the keys hashing to it, and the union is complete.
	env := newTestEnv(t, 512)
	const n = 3000
	files := env.makePartitionedInts(t, "p", n, 3)
	x, err := NewExchange(ExchangeConfig{
		Schema:    intSchema,
		Producers: 3,
		Consumers: 3,
		NewProducer: func(g int) (Iterator, error) {
			return NewFileScan(files[g])
		},
		NewPartition: func(int) expr.Partitioner {
			return expr.HashPartition(intSchema, record.Key{0}, 3)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	parts := collectConcurrently(t, []Iterator{x.Consumer(0), x.Consumer(1), x.Consumer(2)})
	ref := expr.HashPartition(intSchema, record.Key{0}, 3)
	var total int
	for c, vals := range parts {
		total += len(vals)
		for _, v := range vals {
			if ref(intSchema.MustEncode(record.Int(v))) != c {
				t.Fatalf("value %d landed on consumer %d", v, c)
			}
		}
	}
	if total != n {
		t.Fatalf("total %d, want %d", total, n)
	}
	env.checkNoPinLeak(t)
}

func TestExchangeRangePartitioning(t *testing.T) {
	env := newTestEnv(t, 512)
	f := env.makeInts(t, "t", shuffled(900, 3)...)
	x, err := NewExchange(ExchangeConfig{
		Schema:    intSchema,
		Producers: 1,
		Consumers: 3,
		NewProducer: func(int) (Iterator, error) {
			return NewFileScan(f)
		},
		NewPartition: func(int) expr.Partitioner {
			return expr.RangePartition(intSchema, 0, []record.Value{record.Int(300), record.Int(600)})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	parts := collectConcurrently(t, []Iterator{x.Consumer(0), x.Consumer(1), x.Consumer(2)})
	for c, vals := range parts {
		if len(vals) != 300 {
			t.Fatalf("consumer %d got %d values", c, len(vals))
		}
		for _, v := range vals {
			if v/300 != int64(c) {
				t.Fatalf("value %d on consumer %d", v, c)
			}
		}
	}
	env.checkNoPinLeak(t)
}

func TestExchangeBroadcast(t *testing.T) {
	// Every consumer receives every record; records are pinned multiple
	// times, never copied.
	env := newTestEnv(t, 512)
	f := env.makeInts(t, "t", shuffled(500, 4)...)
	x, err := NewExchange(ExchangeConfig{
		Schema:    intSchema,
		Producers: 1,
		Consumers: 3,
		Broadcast: true,
		NewProducer: func(int) (Iterator, error) {
			return NewFileScan(f)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	parts := collectConcurrently(t, []Iterator{x.Consumer(0), x.Consumer(1), x.Consumer(2)})
	want := sortedInts(shuffled(500, 4))
	for c, vals := range parts {
		if !equalInts(sortedInts(vals), want) {
			t.Fatalf("consumer %d did not receive the full broadcast", c)
		}
	}
	env.checkNoPinLeak(t)
}

func TestExchangeFlowControlOnOff(t *testing.T) {
	for _, fc := range []bool{true, false} {
		env := newTestEnv(t, 512)
		f := env.makeInts(t, "t", shuffled(2000, 5)...)
		x, err := NewExchange(ExchangeConfig{
			Schema:      intSchema,
			Producers:   2,
			Consumers:   1,
			FlowControl: fc,
			Slack:       2,
			PacketSize:  16,
			NewProducer: func(g int) (Iterator, error) {
				fs, err := NewFileScan(f)
				if err != nil {
					return nil, err
				}
				// Both producers scan the same file; filter to disjoint halves.
				if g == 0 {
					return NewFilterExpr(env.Env, fs, "v % 2 = 0", expr.Compiled)
				}
				return NewFilterExpr(env.Env, fs, "v % 2 = 1", expr.Compiled)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		rows, err := Collect(x.Consumer(0), 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 2000 {
			t.Fatalf("fc=%v: got %d rows", fc, len(rows))
		}
		env.checkNoPinLeak(t)
	}
}

func TestExchangeMergeNetwork(t *testing.T) {
	// The parallel sort of §4.4: producers sort partitions, the consumer
	// merges per-producer streams kept separate by the exchange operator.
	env := newTestEnv(t, 1024)
	const n = 3000
	files := env.makePartitionedInts(t, "p", n, 3)
	x, err := NewExchange(ExchangeConfig{
		Schema:      intSchema,
		Producers:   3,
		Consumers:   1,
		KeepStreams: true,
		PacketSize:  7,
		NewProducer: func(g int) (Iterator, error) {
			fs, err := NewFileScan(files[g])
			if err != nil {
				return nil, err
			}
			return NewSort(env.Env, fs, []record.SortSpec{{Field: 0}}), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	streams, err := x.ConsumerStreams(0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMergeSpec(streams, []record.SortSpec{{Field: 0}})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := intsOf(rows, 0)
	for i := range got {
		if got[i] != int64(i) {
			t.Fatalf("merge network broke order at %d: %d", i, got[i])
		}
	}
	env.checkNoPinLeak(t)
	if n := len(env.Temp.List()); n != 0 {
		t.Fatalf("%d temp files left", n)
	}
}

func TestExchangeInlineMode(t *testing.T) {
	// §4.4's no-fork variant: each group member is both producer and
	// consumer in its own goroutine, repartitioning data among the group.
	env := newTestEnv(t, 1024)
	const n = 1200
	files := env.makePartitionedInts(t, "p", n, 3)
	x, err := NewExchange(ExchangeConfig{
		Schema:    intSchema,
		Producers: 3,
		Consumers: 3,
		Inline:    true,
		NewProducer: func(g int) (Iterator, error) {
			return NewFileScan(files[g])
		},
		NewPartition: func(int) expr.Partitioner {
			return expr.HashPartition(intSchema, record.Key{0}, 3)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	parts := collectConcurrently(t, []Iterator{x.Consumer(0), x.Consumer(1), x.Consumer(2)})
	ref := expr.HashPartition(intSchema, record.Key{0}, 3)
	total := 0
	for c, vals := range parts {
		total += len(vals)
		for _, v := range vals {
			if ref(intSchema.MustEncode(record.Int(v))) != c {
				t.Fatalf("value %d on member %d", v, c)
			}
		}
	}
	if total != n {
		t.Fatalf("total %d, want %d", total, n)
	}
	if x.Stats().Forks != 0 {
		t.Fatal("inline mode forked")
	}
	env.checkNoPinLeak(t)
}

func TestExchangePaperExampleTopology(t *testing.T) {
	// §4.3: operators A(BC(D)) in groups A0, BC0-2, D0-3 with exchanges
	// X (BC->A) and Y (D->BC). 3*4 = 12 tagged packets flow through Y.
	env := newTestEnv(t, 2048)
	const n = 4000
	files := env.makePartitionedInts(t, "d", n, 4)

	y, err := NewExchange(ExchangeConfig{
		Schema:    intSchema,
		Producers: 4,
		Consumers: 3,
		NewProducer: func(g int) (Iterator, error) {
			return NewFileScan(files[g]) // operator D
		},
		NewPartition: func(int) expr.Partitioner {
			return expr.HashPartition(intSchema, record.Key{0}, 3)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	x, err := NewExchange(ExchangeConfig{
		Schema:    intSchema,
		Producers: 3,
		Consumers: 1,
		NewProducer: func(g int) (Iterator, error) {
			// Operators B(C(...)): a filter over the lower exchange.
			return NewFilterExpr(env.Env, y.Consumer(g), "v >= 0", expr.Compiled)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Operator A: the root collector.
	rows, err := Collect(x.Consumer(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	got := sortedInts(intsOf(rows, 0))
	if len(got) != n || got[0] != 0 || got[n-1] != int64(n-1) {
		t.Fatalf("topology lost records: %d of %d", len(got), n)
	}
	env.checkNoPinLeak(t)
}

func TestExchangeForkSchemes(t *testing.T) {
	run := func(cfgMod func(*ExchangeConfig)) {
		env := newTestEnv(t, 512)
		files := env.makePartitionedInts(t, "p", 800, 8)
		cfg := ExchangeConfig{
			Schema:    intSchema,
			Producers: 8,
			Consumers: 1,
			NewProducer: func(g int) (Iterator, error) {
				return NewFileScan(files[g])
			},
		}
		cfgMod(&cfg)
		x, err := NewExchange(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := Collect(x.Consumer(0), 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 800 {
			t.Fatalf("got %d rows", len(rows))
		}
		if x.Stats().Forks != 8 {
			t.Fatalf("forks = %d, want 8", x.Stats().Forks)
		}
		env.checkNoPinLeak(t)
	}
	run(func(c *ExchangeConfig) { c.Fork = ForkCentral })
	run(func(c *ExchangeConfig) { c.Fork = ForkTree })
}

func TestExchangeForkCostModel(t *testing.T) {
	// With a simulated fork cost, the propagation tree's master spends
	// less wall time forking than the central scheme (§4.2).
	mkCfg := func(env *testEnv, files []*file.File, scheme ForkScheme) ExchangeConfig {
		return ExchangeConfig{
			Schema:    intSchema,
			Producers: 8,
			Consumers: 1,
			Fork:      scheme,
			ForkCost:  2 * time.Millisecond,
			NewProducer: func(g int) (Iterator, error) {
				return NewFileScan(files[g])
			},
		}
	}
	spawn := map[ForkScheme]time.Duration{}
	for _, scheme := range []ForkScheme{ForkCentral, ForkTree} {
		env := newTestEnv(t, 512)
		files := env.makePartitionedInts(t, "p", 80, 8)
		x, err := NewExchange(mkCfg(env, files, scheme))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Collect(x.Consumer(0), 0); err != nil {
			t.Fatal(err)
		}
		spawn[scheme] = x.Stats().SpawnTime
	}
	if spawn[ForkTree] >= spawn[ForkCentral] {
		t.Fatalf("tree fork (%v) not faster than central (%v)", spawn[ForkTree], spawn[ForkCentral])
	}
}

func TestExchangePacketSizes(t *testing.T) {
	for _, ps := range []int{1, 2, 83, 255} {
		env := newTestEnv(t, 512)
		f := env.makeInts(t, "t", shuffled(500, 6)...)
		x, err := NewExchange(ExchangeConfig{
			Schema:     intSchema,
			Producers:  1,
			Consumers:  1,
			PacketSize: ps,
			NewProducer: func(int) (Iterator, error) {
				return NewFileScan(f)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		rows, err := Collect(x.Consumer(0), 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 500 {
			t.Fatalf("packet size %d: %d rows", ps, len(rows))
		}
		env.checkNoPinLeak(t)
	}
}

func TestExchangeConfigValidation(t *testing.T) {
	mk := func(mod func(*ExchangeConfig)) error {
		cfg := ExchangeConfig{
			Schema:      intSchema,
			Producers:   1,
			Consumers:   1,
			NewProducer: func(int) (Iterator, error) { return nil, nil },
		}
		mod(&cfg)
		_, err := NewExchange(cfg)
		return err
	}
	cases := map[string]func(*ExchangeConfig){
		"nil schema":          func(c *ExchangeConfig) { c.Schema = nil },
		"zero producers":      func(c *ExchangeConfig) { c.Producers = 0 },
		"zero consumers":      func(c *ExchangeConfig) { c.Consumers = 0 },
		"nil producer":        func(c *ExchangeConfig) { c.NewProducer = nil },
		"packet size 256":     func(c *ExchangeConfig) { c.PacketSize = 256 },
		"packet size -1":      func(c *ExchangeConfig) { c.PacketSize = -1 },
		"inline mismatch":     func(c *ExchangeConfig) { c.Inline = true; c.Consumers = 2 },
		"inline keep streams": func(c *ExchangeConfig) { c.Inline = true; c.KeepStreams = true },
		"broadcast+partition": func(c *ExchangeConfig) {
			c.Broadcast = true
			c.NewPartition = func(int) expr.Partitioner { return expr.RoundRobin(1) }
		},
	}
	for name, mod := range cases {
		if err := mk(mod); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// ConsumerStreams without KeepStreams.
	x, err := NewExchange(ExchangeConfig{
		Schema: intSchema, Producers: 1, Consumers: 1,
		NewProducer: func(int) (Iterator, error) { return nil, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.ConsumerStreams(0); err == nil {
		t.Error("ConsumerStreams without KeepStreams accepted")
	}
}

func TestExchangeErrorPropagation(t *testing.T) {
	env := newTestEnv(t, 256)
	f := env.makeInts(t, "t", 5, 0, 7)
	x, err := NewExchange(ExchangeConfig{
		Schema:    intSchema,
		Producers: 1,
		Consumers: 1,
		NewProducer: func(int) (Iterator, error) {
			fs, err := NewFileScan(f)
			if err != nil {
				return nil, err
			}
			return NewFilterExpr(env.Env, fs, "10 / v > 0", expr.Compiled)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Collect(x.Consumer(0), 0)
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("producer error not propagated: %v", err)
	}
	env.checkNoPinLeak(t)
}

func TestExchangeProducerBuildError(t *testing.T) {
	env := newTestEnv(t, 256)
	x, err := NewExchange(ExchangeConfig{
		Schema:    intSchema,
		Producers: 2,
		Consumers: 1,
		NewProducer: func(g int) (Iterator, error) {
			if g == 1 {
				return nil, errState("test", "boom")
			}
			f := env.makeInts(t, "ok", 1, 2, 3)
			return NewFileScan(f)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(x.Consumer(0), 0); err == nil {
		t.Fatal("producer construction error not propagated")
	}
	env.checkNoPinLeak(t)
}

func TestExchangeEarlyConsumerClose(t *testing.T) {
	// The consumer stops after a few records (LIMIT-like): producers must
	// still shut down orderly and no pins may leak, even with flow
	// control active. A merge over the producer-bound endpoints of
	// sorting producers closes them all early: only the last one closed
	// may complete the handshake, or the sorts drop pages that its
	// siblings still pin.
	sorted := make([]int64, 5000)
	for i := range sorted {
		sorted[i] = int64(i)
	}
	for _, merge := range []bool{false, true} {
		name := "consumer"
		if merge {
			name = "merge"
		}
		t.Run(name, func(t *testing.T) {
			env := newTestEnv(t, 512)
			f := env.makeInts(t, "t", sorted...)
			x, err := NewExchange(ExchangeConfig{
				Schema:      intSchema,
				Producers:   2,
				Consumers:   1,
				FlowControl: true,
				Slack:       2,
				PacketSize:  8,
				KeepStreams: merge,
				NewProducer: func(g int) (Iterator, error) {
					fs, err := NewFileScan(f)
					if err != nil || !merge {
						return fs, err
					}
					return NewSort(env.Env, fs, []record.SortSpec{{Field: 0}}), nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			c := x.Consumer(0)
			if merge {
				streams, err := x.ConsumerStreams(0)
				if err != nil {
					t.Fatal(err)
				}
				if c, err = NewMergeSpec(streams, []record.SortSpec{{Field: 0}}); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Open(); err != nil {
				t.Fatal(err)
			}
			cur := NewCursor(c, 1)
			for i := 0; i < 10; i++ {
				r, ok, err := cur.Pull()
				if err != nil || !ok {
					t.Fatalf("next %d: %v %v", i, ok, err)
				}
				r.Unfix()
			}
			cur.Release()
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			env.checkNoPinLeak(t)
		})
	}
}

func TestExchangeSchemaMismatchDetected(t *testing.T) {
	env := newTestEnv(t, 256)
	f := env.makeEmp(t, "emp", 10, 2)
	x, err := NewExchange(ExchangeConfig{
		Schema:    intSchema, // wrong: producer yields empSchema
		Producers: 1,
		Consumers: 1,
		NewProducer: func(int) (Iterator, error) {
			return NewFileScan(f)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(x.Consumer(0), 0); err == nil {
		t.Fatal("schema mismatch not detected")
	}
	env.checkNoPinLeak(t)
}

func TestExchangeProtocolErrors(t *testing.T) {
	env := newTestEnv(t, 256)
	f := env.makeInts(t, "t", 1)
	x, _ := NewExchange(ExchangeConfig{
		Schema: intSchema, Producers: 1, Consumers: 1,
		NewProducer: func(int) (Iterator, error) { return NewFileScan(f) },
	})
	c := x.Consumer(0)
	if err := c.NextBatch(NewBatch(1)); err == nil {
		t.Fatal("next before open succeeded")
	}
	if err := c.Close(); err == nil {
		t.Fatal("close before open succeeded")
	}
	if err := c.Open(); err != nil {
		t.Fatal(err)
	}
	if err := c.Open(); err == nil {
		t.Fatal("double open succeeded")
	}
	if _, err := Collect(x.Consumer(99), 0); err == nil {
		t.Fatal("out-of-range consumer accepted")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

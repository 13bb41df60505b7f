package core

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/record"
)

func TestNetExchangeBetweenMachines(t *testing.T) {
	// Machine A holds the data; machine B runs the consumer. They share
	// no buffer pool — records are copied across the link.
	machineA := newTestEnv(t, 256)
	machineB := newTestEnv(t, 256)
	f := machineA.makeInts(t, "t", shuffled(2000, 11)...)

	x, err := NewNetExchange(NetExchangeConfig{
		Schema:    intSchema,
		Producers: 2,
		Consumers: 1,
		NewProducer: func(g int) (Iterator, error) {
			sc, err := NewFileScan(f, nil, false)
			if err != nil {
				return nil, err
			}
			preds := []string{"v % 2 = 0", "v % 2 = 1"}
			return NewFilterExpr(machineA.Env, sc, preds[g], 0)
		},
		ConsumerEnv: func(int) *Env { return machineB.Env },
	})
	if err != nil {
		t.Fatal(err)
	}
	// The consumer tree runs entirely on machine B: sort what arrives.
	sorted := NewSort(machineB.Env, x.Consumer(0), []record.SortSpec{{Field: 0}})
	rows, err := Collect(sorted, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2000 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r[0].I != int64(i) {
			t.Fatalf("row %d = %v", i, r)
		}
	}
	machineA.checkNoPinLeak(t)
	machineB.checkNoPinLeak(t)
	packets, bytes := x.Stats()
	if packets == 0 || bytes == 0 {
		t.Fatal("no wire traffic recorded")
	}
}

func TestNetExchangePartitionedConsumersOnDistinctMachines(t *testing.T) {
	src := newTestEnv(t, 256)
	m1 := newTestEnv(t, 256)
	m2 := newTestEnv(t, 256)
	f := src.makeInts(t, "t", shuffled(1000, 12)...)

	envs := []*Env{m1.Env, m2.Env}
	x, err := NewNetExchange(NetExchangeConfig{
		Schema:    intSchema,
		Producers: 1,
		Consumers: 2,
		NewProducer: func(int) (Iterator, error) {
			return NewFileScan(f, nil, false)
		},
		ConsumerEnv: func(c int) *Env { return envs[c] },
		NewPartition: func(int) expr.Partitioner {
			return expr.HashPartition(intSchema, record.Key{0}, 2)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	counts := make([]int, 2)
	errs := make([]error, 2)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			counts[c], errs[c] = Drain(x.Consumer(c), 0)
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("consumer %d: %v", c, err)
		}
	}
	if counts[0]+counts[1] != 1000 {
		t.Fatalf("lost records: %d + %d", counts[0], counts[1])
	}
	if counts[0] == 0 || counts[1] == 0 {
		t.Fatal("partitioning sent everything to one machine")
	}
	src.checkNoPinLeak(t)
	m1.checkNoPinLeak(t)
	m2.checkNoPinLeak(t)
}

func TestNetExchangeBroadcast(t *testing.T) {
	src := newTestEnv(t, 256)
	m1 := newTestEnv(t, 256)
	m2 := newTestEnv(t, 256)
	f := src.makeInts(t, "t", shuffled(300, 13)...)
	envs := []*Env{m1.Env, m2.Env}
	x, err := NewNetExchange(NetExchangeConfig{
		Schema:    intSchema,
		Producers: 1,
		Consumers: 2,
		Broadcast: true,
		NewProducer: func(int) (Iterator, error) {
			return NewFileScan(f, nil, false)
		},
		ConsumerEnv: func(c int) *Env { return envs[c] },
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	counts := make([]int, 2)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			counts[c], _ = Drain(x.Consumer(c), 0)
		}(c)
	}
	wg.Wait()
	if counts[0] != 300 || counts[1] != 300 {
		t.Fatalf("broadcast counts = %v", counts)
	}
}

func TestNetExchangeErrorPropagation(t *testing.T) {
	src := newTestEnv(t, 256)
	dst := newTestEnv(t, 256)
	f := src.makeInts(t, "t", 1, 0, 2)
	x, err := NewNetExchange(NetExchangeConfig{
		Schema:    intSchema,
		Producers: 1,
		Consumers: 1,
		NewProducer: func(int) (Iterator, error) {
			sc, err := NewFileScan(f, nil, false)
			if err != nil {
				return nil, err
			}
			return NewFilterExpr(src.Env, sc, "10 / v > 0", 0)
		},
		ConsumerEnv: func(int) *Env { return dst.Env },
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Collect(x.Consumer(0), 0)
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("error not propagated across the link: %v", err)
	}
	src.checkNoPinLeak(t)
	dst.checkNoPinLeak(t)
}

func TestNetExchangeSimulatedWire(t *testing.T) {
	src := newTestEnv(t, 256)
	dst := newTestEnv(t, 256)
	f := src.makeInts(t, "t", shuffled(200, 14)...)
	x, err := NewNetExchange(NetExchangeConfig{
		Schema:     intSchema,
		Producers:  1,
		Consumers:  1,
		PacketSize: 50,
		Latency:    2 * time.Millisecond,
		NewProducer: func(int) (Iterator, error) {
			return NewFileScan(f, nil, false)
		},
		ConsumerEnv: func(int) *Env { return dst.Env },
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	n, err := Drain(x.Consumer(0), 0)
	if err != nil || n != 200 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	// 200 records / 50 per packet = 4 data packets + 1 eos ≥ 10ms.
	if elapsed := time.Since(start); elapsed < 8*time.Millisecond {
		t.Fatalf("latency simulation ineffective: %v", elapsed)
	}
}

// slowCloseHead yields the first n records of its input, then reports
// end-of-stream while the input is still mid-page: the scan's pin is
// released only by Close, which dawdles first.
type slowCloseHead struct {
	Iterator
	n   int
	cur *Cursor
}

func (s *slowCloseHead) NextBatch(b *Batch) error {
	if s.cur == nil {
		s.cur = NewCursor(s.Iterator, 1)
	}
	return fill(b, func() (Rec, bool, error) {
		if s.n == 0 {
			return Rec{}, false, nil
		}
		s.n--
		return s.cur.Pull()
	})
}

func (s *slowCloseHead) Close() error {
	time.Sleep(20 * time.Millisecond)
	return s.Iterator.Close()
}

// A producer sends EOS before it closes its subtree, so the last consumer
// Close must wait for the producers: the query is not closed while a
// producer still holds a scan pin.
func TestNetExchangeCloseWaitsForProducers(t *testing.T) {
	src := newTestEnv(t, 64)
	dst := newTestEnv(t, 64)
	f := src.makeInts(t, "t", shuffled(100, 14)...)
	x, err := NewNetExchange(NetExchangeConfig{
		Schema:    intSchema,
		Producers: 2,
		Consumers: 1,
		NewProducer: func(int) (Iterator, error) {
			sc, err := NewFileScan(f, nil, false)
			if err != nil {
				return nil, err
			}
			return &slowCloseHead{Iterator: sc, n: 10}, nil
		},
		ConsumerEnv: func(int) *Env { return dst.Env },
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := Drain(x.Consumer(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 20 {
		t.Fatalf("drained %d records", n)
	}
	src.checkNoPinLeak(t)
}

func TestNetExchangeValidation(t *testing.T) {
	env := newTestEnv(t, 64)
	good := NetExchangeConfig{
		Schema: intSchema, Producers: 1, Consumers: 1,
		NewProducer: func(int) (Iterator, error) { return nil, nil },
		ConsumerEnv: func(int) *Env { return env.Env },
	}
	cases := map[string]func(*NetExchangeConfig){
		"nil schema":     func(c *NetExchangeConfig) { c.Schema = nil },
		"zero producers": func(c *NetExchangeConfig) { c.Producers = 0 },
		"nil consumer":   func(c *NetExchangeConfig) { c.ConsumerEnv = nil },
		"nil producer":   func(c *NetExchangeConfig) { c.NewProducer = nil },
		"bad packet":     func(c *NetExchangeConfig) { c.PacketSize = 999 },
		"bcast+part": func(c *NetExchangeConfig) {
			c.Broadcast = true
			c.NewPartition = func(int) expr.Partitioner { return expr.RoundRobin(1) }
		},
	}
	for name, mod := range cases {
		cfg := good
		mod(&cfg)
		if _, err := NewNetExchange(cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	x, err := NewNetExchange(good)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Consumer(0).NextBatch(NewBatch(1)); err == nil {
		t.Error("next before open accepted")
	}
	if err := x.Consumer(5).Open(); err == nil {
		t.Error("out-of-range consumer accepted")
	}
}

package bench

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/record"
	"repro/internal/storage/buffer"
)

// Line is one measured configuration of an ablation.
type Line struct {
	Name    string
	Elapsed time.Duration
	Extra   string
	// Detail is an optional multi-line per-operator breakdown (from an
	// analyzed run), printed indented below the table.
	Detail string
}

// Ablation is a titled group of measured lines.
type Ablation struct {
	Title string
	Lines []Line
}

// Print renders the ablation as an aligned table, followed by any
// per-line breakdown details.
func (a *Ablation) Print(w io.Writer) {
	fmt.Fprintln(w, a.Title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for _, l := range a.Lines {
		fmt.Fprintf(tw, "  %s\t%v\t%s\n", l.Name, l.Elapsed.Round(time.Microsecond), l.Extra)
	}
	tw.Flush()
	for _, l := range a.Lines {
		if l.Detail == "" {
			continue
		}
		fmt.Fprintf(w, "  %s:\n", l.Name)
		for _, line := range strings.Split(l.Detail, "\n") {
			fmt.Fprintf(w, "    %s\n", line)
		}
	}
}

// AblationFlowControl (A1): flow control off vs on at several slacks.
// Runs are instrumented: the per-stage breakdown shows where producers
// stall on flow-control tokens and where the consumer waits for data.
func AblationFlowControl(records int) (*Ablation, error) {
	a := &Ablation{Title: "A1 — flow control and slack (3-stage pipeline)"}
	runs := []struct {
		name  string
		fc    bool
		slack int
	}{
		{"flow control off", false, 0},
		{"slack 1", true, 1},
		{"slack 4", true, 4},
		{"slack 16", true, 16},
	}
	for _, r := range runs {
		res, err := RunPass(PassConfig{
			Records: records, Stages: 3,
			FlowControl: r.fc, Slack: r.slack,
			Analyze: true,
		})
		if err != nil {
			return nil, fmt.Errorf("a1 %s: %w", r.name, err)
		}
		a.Lines = append(a.Lines, Line{Name: r.name, Elapsed: res.Elapsed, Detail: res.Breakdown})
	}
	return a, nil
}

// AblationForkScheme (A2): central vs propagation-tree forking under a
// simulated per-fork cost (§4.2).
func AblationForkScheme(producers int, forkCost time.Duration) (*Ablation, error) {
	a := &Ablation{Title: fmt.Sprintf("A2 — fork scheme, %d producers, %v per fork", producers, forkCost)}
	for _, scheme := range []core.ForkScheme{core.ForkCentral, core.ForkTree} {
		w, err := NewWorld(1024, 0)
		if err != nil {
			return nil, err
		}
		files, err := w.LoadPartitionedInts("p", producers*50, producers)
		if err != nil {
			w.Close()
			return nil, err
		}
		x, err := core.NewExchange(core.ExchangeConfig{
			Schema:    files[0].Schema(),
			Producers: producers,
			Consumers: 1,
			Fork:      scheme,
			ForkCost:  forkCost,
			NewProducer: func(g int) (core.Iterator, error) {
				return core.NewFileScan(files[g], nil, false)
			},
		})
		if err != nil {
			w.Close()
			return nil, err
		}
		start := time.Now()
		if _, err := core.Drain(x.Consumer(0), 0); err != nil {
			w.Close()
			return nil, err
		}
		elapsed := time.Since(start)
		name := "central"
		if scheme == core.ForkTree {
			name = "propagation tree"
		}
		a.Lines = append(a.Lines, Line{
			Name:    name,
			Elapsed: elapsed,
			Extra:   fmt.Sprintf("master spawn time %v", x.Stats().SpawnTime.Round(time.Microsecond)),
		})
		w.Close()
	}
	return a, nil
}

// AblationInline (A3): forked vs inline exchange boundary (§4.4).
func AblationInline(records int) (*Ablation, error) {
	a := &Ablation{Title: "A3 — one exchange boundary: forked vs inline (no-fork)"}
	forked, err := RunPass(PassConfig{Records: records, Stages: 1})
	if err != nil {
		return nil, err
	}
	inline, err := RunPass(PassConfig{Records: records, Stages: 1, Inline: true})
	if err != nil {
		return nil, err
	}
	a.Lines = append(a.Lines,
		Line{Name: "forked (data-driven)", Elapsed: forked.Elapsed},
		Line{Name: "inline (demand-driven, flow control obsolete)", Elapsed: inline.Elapsed},
	)
	return a, nil
}

// AblationPartitioning (A4): round-robin vs hash vs range partitioning on
// a 2-producer -> 3-consumer exchange.
func AblationPartitioning(records int) (*Ablation, error) {
	a := &Ablation{Title: "A4 — partitioning support functions (2 producers → 3 consumers)"}
	type mk struct {
		name string
		part func(schema *record.Schema) func(int) expr.Partitioner
	}
	makers := []mk{
		{"round robin", func(*record.Schema) func(int) expr.Partitioner { return nil }},
		{"hash(a)", func(s *record.Schema) func(int) expr.Partitioner {
			return func(int) expr.Partitioner { return expr.HashPartition(s, record.Key{0}, 3) }
		}},
		{"range(a)", func(s *record.Schema) func(int) expr.Partitioner {
			cut1 := record.Int(int64(records / 3))
			cut2 := record.Int(int64(2 * records / 3))
			return func(int) expr.Partitioner {
				return expr.RangePartition(s, 0, []record.Value{cut1, cut2})
			}
		}},
	}
	for _, m := range makers {
		w, err := NewWorld(2048, 0)
		if err != nil {
			return nil, err
		}
		cfg := core.ExchangeConfig{
			Schema:    GenSchema,
			Producers: 2,
			Consumers: 3,
			NewProducer: func(g int) (core.Iterator, error) {
				n := records / 2
				if g == 0 {
					n = records - n
				}
				return NewGen(w.Env, n, int64(g)*int64(records/2)), nil
			},
		}
		if p := m.part(GenSchema); p != nil {
			cfg.NewPartition = p
		}
		x, err := core.NewExchange(cfg)
		if err != nil {
			w.Close()
			return nil, err
		}
		start := time.Now()
		var wg sync.WaitGroup
		errs := make([]error, 3)
		for c := 0; c < 3; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				_, errs[c] = core.Drain(x.Consumer(c), 0)
			}(c)
		}
		wg.Wait()
		elapsed := time.Since(start)
		w.Close()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		a.Lines = append(a.Lines, Line{Name: m.name, Elapsed: elapsed})
	}
	return a, nil
}

// AblationBroadcast (A5): broadcast (multi-pin, zero copy) vs partitioned
// delivery to three consumers.
func AblationBroadcast(records int) (*Ablation, error) {
	a := &Ablation{Title: "A5 — broadcast (pin per consumer, no copy) vs partitioned delivery"}
	for _, broadcast := range []bool{false, true} {
		w, err := NewWorld(2048, 0)
		if err != nil {
			return nil, err
		}
		x, err := core.NewExchange(core.ExchangeConfig{
			Schema:    GenSchema,
			Producers: 1,
			Consumers: 3,
			Broadcast: broadcast,
			NewProducer: func(int) (core.Iterator, error) {
				return NewGen(w.Env, records, 0), nil
			},
		})
		if err != nil {
			w.Close()
			return nil, err
		}
		start := time.Now()
		var wg sync.WaitGroup
		total := make([]int, 3)
		errs := make([]error, 3)
		for c := 0; c < 3; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				total[c], errs[c] = core.Drain(x.Consumer(c), 0)
			}(c)
		}
		wg.Wait()
		elapsed := time.Since(start)
		w.Close()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		name := "partitioned (round robin)"
		delivered := total[0] + total[1] + total[2]
		if broadcast {
			name = "broadcast"
		}
		a.Lines = append(a.Lines, Line{
			Name: name, Elapsed: elapsed,
			Extra: fmt.Sprintf("%d records delivered", delivered),
		})
	}
	return a, nil
}

// AblationMatch (A6): hash-based vs sort-based one-to-one match for a
// join and a duplicate elimination.
func AblationMatch(rows int) (*Ablation, error) {
	a := &Ablation{Title: fmt.Sprintf("A6 — one-to-one match algorithms (%d × %d rows)", rows, rows)}
	w, err := NewWorld(8192, 0)
	if err != nil {
		return nil, err
	}
	defer w.Close()
	l, err := w.LoadPairs("l", rows, rows/4)
	if err != nil {
		return nil, err
	}
	r, err := w.LoadPairs("r", rows, rows/4)
	if err != nil {
		return nil, err
	}
	run := func(name string, mk func() (core.Iterator, error)) error {
		it, err := mk()
		if err != nil {
			return err
		}
		start := time.Now()
		n, err := core.Drain(it, 0)
		if err != nil {
			return err
		}
		a.Lines = append(a.Lines, Line{
			Name: name, Elapsed: time.Since(start),
			Extra: fmt.Sprintf("%d output rows", n),
		})
		return nil
	}
	if err := run("hash join", func() (core.Iterator, error) {
		ls, _ := core.NewFileScan(l, nil, false)
		rs, _ := core.NewFileScan(r, nil, false)
		return core.NewHashMatch(w.Env, core.MatchJoin, ls, rs, record.Key{1}, record.Key{1})
	}); err != nil {
		return nil, err
	}
	if err := run("sort-merge join", func() (core.Iterator, error) {
		ls, _ := core.NewFileScan(l, nil, false)
		rs, _ := core.NewFileScan(r, nil, false)
		return core.NewMergeMatchSorted(w.Env, core.MatchJoin, ls, rs, record.Key{1}, record.Key{1})
	}); err != nil {
		return nil, err
	}
	if err := run("hash dup-elim", func() (core.Iterator, error) {
		ls, _ := core.NewFileScan(l, nil, false)
		return core.NewHashDistinct(w.Env, ls)
	}); err != nil {
		return nil, err
	}
	if err := run("sort dup-elim", func() (core.Iterator, error) {
		ls, _ := core.NewFileScan(l, nil, false)
		return core.NewSortDistinct(w.Env, ls)
	}); err != nil {
		return nil, err
	}
	return a, nil
}

// AblationDivision (A7): hash-division serial vs parallel with quotient
// partitioning (broadcast divisor) and divisor partitioning (partial
// counts + global aggregation), plus the sort-based baseline — the §4.4
// parallelisation the paper reports "not insignificant speedups" for.
func AblationDivision(students, courses, workers int) (*Ablation, error) {
	a := &Ablation{Title: fmt.Sprintf("A7 — relational division (%d students × %d courses, %d workers)",
		students, courses, workers)}

	divSchema := record.MustSchema(
		record.Field{Name: "student", Type: record.TInt},
		record.Field{Name: "course", Type: record.TInt},
	)
	divisorSchema := record.MustSchema(record.Field{Name: "course", Type: record.TInt})

	// load populates a world with the enrollment data: student s takes
	// every course iff s%3 == 0, otherwise all but the last.
	load := func(w *World) (dividend, divisor []core.Iterator, err error) {
		dv, err := w.Base.Create("enrolled", divSchema)
		if err != nil {
			return nil, nil, err
		}
		for s := 0; s < students; s++ {
			limit := courses
			if s%3 != 0 {
				limit = courses - 1
			}
			for c := 0; c < limit; c++ {
				if _, err := dv.Insert(divSchema.MustEncode(record.Int(int64(s)), record.Int(int64(c)))); err != nil {
					return nil, nil, err
				}
			}
		}
		ds, err := w.Base.Create("required", divisorSchema)
		if err != nil {
			return nil, nil, err
		}
		for c := 0; c < courses; c++ {
			if _, err := ds.Insert(divisorSchema.MustEncode(record.Int(int64(c)))); err != nil {
				return nil, nil, err
			}
		}
		dvs, err := core.NewFileScan(dv, nil, false)
		if err != nil {
			return nil, nil, err
		}
		dss, err := core.NewFileScan(ds, nil, false)
		if err != nil {
			return nil, nil, err
		}
		return []core.Iterator{dvs}, []core.Iterator{dss}, nil
	}

	wantQuot := (students + 2) / 3

	run := func(name string, mk func(w *World) (core.Iterator, error)) error {
		w, err := NewWorld(16384, 0)
		if err != nil {
			return err
		}
		defer w.Close()
		it, err := mk(w)
		if err != nil {
			return err
		}
		start := time.Now()
		n, err := core.Drain(it, 0)
		if err != nil {
			return err
		}
		status := "OK"
		if n != wantQuot {
			status = fmt.Sprintf("WRONG (want %d)", wantQuot)
		}
		a.Lines = append(a.Lines, Line{
			Name: name, Elapsed: time.Since(start),
			Extra: fmt.Sprintf("%d quotients %s", n, status),
		})
		return nil
	}

	// Serial hash division.
	if err := run("serial hash division", func(w *World) (core.Iterator, error) {
		dv, ds, err := load(w)
		if err != nil {
			return nil, err
		}
		return core.NewHashDivision(w.Env, dv[0], ds[0], record.Key{0}, record.Key{1}, record.Key{0})
	}); err != nil {
		return nil, err
	}

	// Serial sort-based division baseline.
	if err := run("serial sort division", func(w *World) (core.Iterator, error) {
		dv, ds, err := load(w)
		if err != nil {
			return nil, err
		}
		return core.NewSortDivision(w.Env, dv[0], ds[0], record.Key{0}, record.Key{1}, record.Key{0})
	}); err != nil {
		return nil, err
	}

	// Quotient partitioning: dividend hashed on the quotient attribute,
	// divisor broadcast; each worker computes complete local quotients.
	if err := run("parallel, quotient partitioning (broadcast divisor)", func(w *World) (core.Iterator, error) {
		dv, ds, err := load(w)
		if err != nil {
			return nil, err
		}
		xDividend, err := core.NewExchange(core.ExchangeConfig{
			Schema: divSchema, Producers: 1, Consumers: workers,
			NewProducer: func(int) (core.Iterator, error) { return dv[0], nil },
			NewPartition: func(int) expr.Partitioner {
				return expr.HashPartition(divSchema, record.Key{0}, workers)
			},
		})
		if err != nil {
			return nil, err
		}
		xDivisor, err := core.NewExchange(core.ExchangeConfig{
			Schema: divisorSchema, Producers: 1, Consumers: workers, Broadcast: true,
			NewProducer: func(int) (core.Iterator, error) { return ds[0], nil },
		})
		if err != nil {
			return nil, err
		}
		quotSchema := record.MustSchema(record.Field{Name: "student", Type: record.TInt})
		gather, err := core.NewExchange(core.ExchangeConfig{
			Schema: quotSchema, Producers: workers, Consumers: 1,
			NewProducer: func(g int) (core.Iterator, error) {
				return core.NewHashDivision(w.Env, xDividend.Consumer(g), xDivisor.Consumer(g),
					record.Key{0}, record.Key{1}, record.Key{0})
			},
		})
		if err != nil {
			return nil, err
		}
		return gather.Consumer(0), nil
	}); err != nil {
		return nil, err
	}

	// Divisor partitioning: both inputs hashed on the divisor attribute;
	// workers emit partial match counts; a global aggregation sums them
	// and keeps quotients matching the full divisor.
	if err := run("parallel, divisor partitioning (partial counts)", func(w *World) (core.Iterator, error) {
		dv, ds, err := load(w)
		if err != nil {
			return nil, err
		}
		xDividend, err := core.NewExchange(core.ExchangeConfig{
			Schema: divSchema, Producers: 1, Consumers: workers,
			NewProducer: func(int) (core.Iterator, error) { return dv[0], nil },
			NewPartition: func(int) expr.Partitioner {
				return expr.HashPartition(divSchema, record.Key{1}, workers)
			},
		})
		if err != nil {
			return nil, err
		}
		xDivisor, err := core.NewExchange(core.ExchangeConfig{
			Schema: divisorSchema, Producers: 1, Consumers: workers,
			NewProducer: func(int) (core.Iterator, error) { return ds[0], nil },
			NewPartition: func(int) expr.Partitioner {
				return expr.HashPartition(divisorSchema, record.Key{0}, workers)
			},
		})
		if err != nil {
			return nil, err
		}
		partialSchema := record.MustSchema(
			record.Field{Name: "student", Type: record.TInt},
			record.Field{Name: "matched", Type: record.TInt},
		)
		gather, err := core.NewExchange(core.ExchangeConfig{
			Schema: partialSchema, Producers: workers, Consumers: 1,
			NewProducer: func(g int) (core.Iterator, error) {
				d, err := core.NewHashDivision(w.Env, xDividend.Consumer(g), xDivisor.Consumer(g),
					record.Key{0}, record.Key{1}, record.Key{0})
				if err != nil {
					return nil, err
				}
				if err := d.SetPartial(true); err != nil {
					return nil, err
				}
				return d, nil
			},
		})
		if err != nil {
			return nil, err
		}
		agg, err := core.NewHashAggregate(w.Env, gather.Consumer(0),
			record.Key{0}, []core.AggSpec{{Func: core.AggSum, Field: 1, Name: "matched"}})
		if err != nil {
			return nil, err
		}
		return core.NewFilterExpr(w.Env, agg, fmt.Sprintf("matched = %d", courses), expr.Compiled)
	}); err != nil {
		return nil, err
	}

	return a, nil
}

// AblationSupportFunctions (A8): interpreted vs compiled predicate
// evaluation over a filter scan (§3).
func AblationSupportFunctions(records int) (*Ablation, error) {
	a := &Ablation{Title: fmt.Sprintf("A8 — support functions: compiled vs interpreted (%d records)", records)}
	for _, mode := range []expr.Mode{expr.Compiled, expr.Interpreted} {
		w, err := NewWorld(2048, 0)
		if err != nil {
			return nil, err
		}
		gen := NewGen(w.Env, records, 0)
		f, err := core.NewFilterExpr(w.Env, gen, "a % 10 < 5 AND b > 100", mode)
		if err != nil {
			w.Close()
			return nil, err
		}
		start := time.Now()
		n, err := core.Drain(f, 0)
		if err != nil {
			w.Close()
			return nil, err
		}
		a.Lines = append(a.Lines, Line{
			Name: mode.String(), Elapsed: time.Since(start),
			Extra: fmt.Sprintf("%d qualified", n),
		})
		w.Close()
	}
	return a, nil
}

// AblationBufferLocking (A9): the two-level pool/descriptor scheme vs a
// single global lock under a concurrent scan workload (§4.5).
func AblationBufferLocking(records, workers int) (*Ablation, error) {
	a := &Ablation{Title: fmt.Sprintf("A9 — buffer locking under %d concurrent scans", workers)}
	for _, mode := range []buffer.LockMode{buffer.TwoLevel, buffer.Global} {
		w, err := NewWorld(512, mode)
		if err != nil {
			return nil, err
		}
		files, err := w.LoadPartitionedInts("p", records, workers)
		if err != nil {
			w.Close()
			return nil, err
		}
		start := time.Now()
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for rep := 0; rep < 4; rep++ {
					sc, err := core.NewFileScan(files[g], nil, false)
					if err != nil {
						errs[g] = err
						return
					}
					if _, err := core.Drain(sc, 0); err != nil {
						errs[g] = err
						return
					}
				}
			}(g)
		}
		wg.Wait()
		elapsed := time.Since(start)
		restarts := w.Pool.Stats().Restarts
		w.Close()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		name := "two-level (pool + descriptor try-lock)"
		if mode == buffer.Global {
			name = "single global lock"
		}
		a.Lines = append(a.Lines, Line{
			Name: name, Elapsed: elapsed,
			Extra: fmt.Sprintf("%d restarts", restarts),
		})
	}
	return a, nil
}

// AblationSharedNothing (A11): the shared-memory exchange (records passed
// as pinned buffer residents) vs the shared-nothing NetExchange (record
// images copied across machines) — quantifying what the shared buffer
// saves, and what a network boundary costs (§4.1's discussion of the
// GAMMA-style paradigm; the multi-machine extension the paper announces).
func AblationSharedNothing(records int, wireLatency time.Duration) (*Ablation, error) {
	a := &Ablation{Title: fmt.Sprintf("A11 — shared-memory vs shared-nothing exchange (%d records)", records)}

	// Shared memory: one machine, pinned-record passing.
	{
		w, err := NewWorld(4096, 0)
		if err != nil {
			return nil, err
		}
		x, err := core.NewExchange(core.ExchangeConfig{
			Schema: GenSchema, Producers: 1, Consumers: 1,
			NewProducer: func(int) (core.Iterator, error) { return NewGen(w.Env, records, 0), nil },
		})
		if err != nil {
			w.Close()
			return nil, err
		}
		start := time.Now()
		if _, err := core.Drain(x.Consumer(0), 0); err != nil {
			w.Close()
			return nil, err
		}
		a.Lines = append(a.Lines, Line{
			Name: "shared memory (pins, no copies)", Elapsed: time.Since(start),
		})
		w.Close()
	}

	// Shared nothing: two machines, copies over an ideal (zero-latency)
	// link, and over a link with simulated latency.
	for _, lat := range []time.Duration{0, wireLatency} {
		src, err := NewWorld(4096, 0)
		if err != nil {
			return nil, err
		}
		dst, err := NewWorld(4096, 0)
		if err != nil {
			src.Close()
			return nil, err
		}
		x, err := core.NewNetExchange(core.NetExchangeConfig{
			Schema: GenSchema, Producers: 1, Consumers: 1,
			Latency: lat,
			NewProducer: func(int) (core.Iterator, error) {
				return NewGen(src.Env, records, 0), nil
			},
			ConsumerEnv: func(int) *core.Env { return dst.Env },
		})
		if err != nil {
			src.Close()
			dst.Close()
			return nil, err
		}
		start := time.Now()
		if _, err := core.Drain(x.Consumer(0), 0); err != nil {
			src.Close()
			dst.Close()
			return nil, err
		}
		elapsed := time.Since(start)
		packets, bytes := x.Stats()
		name := "shared nothing, ideal link (copies)"
		if lat > 0 {
			name = fmt.Sprintf("shared nothing, %v/packet link", lat)
		}
		a.Lines = append(a.Lines, Line{
			Name: name, Elapsed: elapsed,
			Extra: fmt.Sprintf("%d packets, %d KB shipped", packets, bytes/1024),
		})
		src.Close()
		dst.Close()
	}
	return a, nil
}

// AblationParallelSort (A10): serial external sort vs the §4.4 merge
// network (producers sort partitions, consumer merges streams).
func AblationParallelSort(records, producers int) (*Ablation, error) {
	a := &Ablation{Title: fmt.Sprintf("A10 — parallel sort merge network (%d records, %d producers)", records, producers)}

	// Serial: one scan over all partitions via exchange, then one sort.
	w, err := NewWorld(8192, 0)
	if err != nil {
		return nil, err
	}
	files, err := w.LoadPartitionedInts("p", records, producers)
	if err != nil {
		w.Close()
		return nil, err
	}
	gather, err := core.NewExchange(core.ExchangeConfig{
		Schema:    files[0].Schema(),
		Producers: producers,
		Consumers: 1,
		NewProducer: func(g int) (core.Iterator, error) {
			return core.NewFileScan(files[g], nil, false)
		},
	})
	if err != nil {
		w.Close()
		return nil, err
	}
	serialSort := core.NewSort(w.Env, gather.Consumer(0), []record.SortSpec{{Field: 0}})
	start := time.Now()
	n, err := core.Drain(serialSort, 0)
	if err != nil {
		w.Close()
		return nil, err
	}
	a.Lines = append(a.Lines, Line{
		Name: "serial sort above exchange", Elapsed: time.Since(start),
		Extra: fmt.Sprintf("%d records", n),
	})
	w.Close()

	// Parallel: producers sort their partitions; merge network on top.
	w2, err := NewWorld(8192, 0)
	if err != nil {
		return nil, err
	}
	files2, err := w2.LoadPartitionedInts("p", records, producers)
	if err != nil {
		w2.Close()
		return nil, err
	}
	x, err := core.NewExchange(core.ExchangeConfig{
		Schema:      files2[0].Schema(),
		Producers:   producers,
		Consumers:   1,
		KeepStreams: true,
		NewProducer: func(g int) (core.Iterator, error) {
			sc, err := core.NewFileScan(files2[g], nil, false)
			if err != nil {
				return nil, err
			}
			return core.NewSort(w2.Env, sc, []record.SortSpec{{Field: 0}}), nil
		},
	})
	if err != nil {
		w2.Close()
		return nil, err
	}
	streams, err := x.ConsumerStreams(0)
	if err != nil {
		w2.Close()
		return nil, err
	}
	m, err := core.NewMergeSpec(streams, []record.SortSpec{{Field: 0}})
	if err != nil {
		w2.Close()
		return nil, err
	}
	start = time.Now()
	n, err = core.Drain(m, 0)
	if err != nil {
		w2.Close()
		return nil, err
	}
	a.Lines = append(a.Lines, Line{
		Name: "merge network (producers sort, consumer merges)", Elapsed: time.Since(start),
		Extra: fmt.Sprintf("%d records", n),
	})
	w2.Close()
	return a, nil
}

// AblationRunGeneration (A12): quicksort batching vs replacement
// selection for external-sort run generation (the companion
// parallel-sorting work's technique): fewer, longer runs mean shallower
// merge cascades.
func AblationRunGeneration(records, runSize int) (*Ablation, error) {
	a := &Ablation{Title: fmt.Sprintf("A12 — sort run generation (%d records, %d-record memory)", records, runSize)}
	for _, gen := range []core.RunGen{core.RunGenQuicksort, core.RunGenReplacementSelection} {
		w, err := NewWorld(8192, 0)
		if err != nil {
			return nil, err
		}
		s := core.NewSortFunc(w.Env, NewGen(w.Env, records, 0),
			expr.NewKeyCompare(GenSchema, []record.SortSpec{{Field: 2}}))
		s.RunSize = runSize
		s.RunGen = gen
		start := time.Now()
		n, err := core.Drain(s, 0)
		if err != nil {
			w.Close()
			return nil, err
		}
		if n != records {
			w.Close()
			return nil, fmt.Errorf("a12: sorted %d of %d", n, records)
		}
		a.Lines = append(a.Lines, Line{
			Name: gen.String(), Elapsed: time.Since(start),
			Extra: fmt.Sprintf("%d initial runs", s.RunsGenerated()),
		})
		w.Close()
	}
	return a, nil
}

package core

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/record"
)

// TestParallelAggregationLocalGlobal exercises the classic two-phase
// parallel aggregation pattern the exchange operator enables: each
// producer computes local aggregates over its partition, the exchange
// repartitions the partial results by group key, and a global aggregation
// combines them — counts are summed, sums are summed, mins are min'd.
// Every building block is an unmodified single-process operator.
func TestParallelAggregationLocalGlobal(t *testing.T) {
	env := newTestEnv(t, 2048)
	const n, groups, producers = 6000, 10, 3
	parts := env.makePartitionedInts(t, "p", n, producers)

	// Local phase: per-producer hash aggregation on v % groups.
	localSchema := record.MustSchema(
		record.Field{Name: "g", Type: record.TInt},
		record.Field{Name: "cnt", Type: record.TInt},
		record.Field{Name: "sum", Type: record.TInt},
		record.Field{Name: "min", Type: record.TInt},
	)
	x, err := NewExchange(ExchangeConfig{
		Schema:    localSchema,
		Producers: producers,
		Consumers: 1,
		NewProducer: func(g int) (Iterator, error) {
			sc, err := NewFileScan(parts[g], nil, false)
			if err != nil {
				return nil, err
			}
			// Compute the group key as a derived column, then aggregate.
			proj, err := NewProjectExprs(env.Env, sc,
				[]string{"v % 10", "v"}, []string{"g", "v"}, expr.Compiled)
			if err != nil {
				return nil, err
			}
			agg, err := NewHashAggregate(env.Env, proj, record.Key{0}, []AggSpec{
				{Func: AggCount, Name: "cnt"},
				{Func: AggSum, Field: 1, Name: "sum"},
				{Func: AggMin, Field: 1, Name: "min"},
			})
			if err != nil {
				return nil, err
			}
			return agg, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Global phase: combine the partials.
	global, err := NewHashAggregate(env.Env, x.Consumer(0), record.Key{0}, []AggSpec{
		{Func: AggSum, Field: 1, Name: "cnt"},
		{Func: AggSum, Field: 2, Name: "sum"},
		{Func: AggMin, Field: 3, Name: "min"},
	})
	if err != nil {
		t.Fatal(err)
	}
	final := NewSort(env.Env, global, []record.SortSpec{{Field: 0}})
	rows, err := Collect(final, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != groups {
		t.Fatalf("groups = %d, want %d", len(rows), groups)
	}
	for g, r := range rows {
		if r[0].I != int64(g) {
			t.Fatalf("group key %v at %d", r[0], g)
		}
		if r[1].I != n/groups {
			t.Fatalf("group %d count = %d, want %d", g, r[1].I, n/groups)
		}
		// sum over {g, g+10, ..., g+n-10} = (n/10)*g + 10*(0+1+...+(n/10-1))
		k := int64(n / groups)
		wantSum := k*int64(g) + int64(groups)*k*(k-1)/2
		if r[2].I != wantSum {
			t.Fatalf("group %d sum = %d, want %d", g, r[2].I, wantSum)
		}
		if r[3].I != int64(g) {
			t.Fatalf("group %d min = %d, want %d", g, r[3].I, g)
		}
	}
	env.checkNoPinLeak(t)
}

// TestParallelAggregationRepartitioned adds a middle exchange with hash
// partitioning on the group key, so the global phase itself can run
// partitioned — the full GAMMA-style aggregation pipeline.
func TestParallelAggregationRepartitioned(t *testing.T) {
	env := newTestEnv(t, 2048)
	const n, producers, combiners = 4000, 4, 2
	parts := env.makePartitionedInts(t, "p", n, producers)

	partialSchema := record.MustSchema(
		record.Field{Name: "g", Type: record.TInt},
		record.Field{Name: "cnt", Type: record.TInt},
	)
	// Level 1: local partial counts, hash-repartitioned by group key onto
	// the combiners.
	xPartials, err := NewExchange(ExchangeConfig{
		Schema:    partialSchema,
		Producers: producers,
		Consumers: combiners,
		NewPartition: func(int) expr.Partitioner {
			return expr.HashPartition(partialSchema, record.Key{0}, combiners)
		},
		NewProducer: func(g int) (Iterator, error) {
			sc, err := NewFileScan(parts[g], nil, false)
			if err != nil {
				return nil, err
			}
			proj, err := NewProjectExprs(env.Env, sc, []string{"v % 7"}, []string{"g"}, expr.Compiled)
			if err != nil {
				return nil, err
			}
			return NewHashAggregate(env.Env, proj, record.Key{0}, []AggSpec{{Func: AggCount, Name: "cnt"}})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Level 2: each combiner sums the partials for its share of the
	// groups; a final gather brings the results to the root.
	gather, err := NewExchange(ExchangeConfig{
		Schema:    partialSchema,
		Producers: combiners,
		Consumers: 1,
		NewProducer: func(c int) (Iterator, error) {
			return NewHashAggregate(env.Env, xPartials.Consumer(c), record.Key{0},
				[]AggSpec{{Func: AggSum, Field: 1, Name: "cnt"}})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(NewSort(env.Env, gather.Consumer(0), []record.SortSpec{{Field: 0}}), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("groups = %d, want 7", len(rows))
	}
	total := int64(0)
	for _, r := range rows {
		total += r[1].I
	}
	if total != n {
		t.Fatalf("counts sum to %d, want %d", total, n)
	}
	env.checkNoPinLeak(t)
}

package core

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/expr"
	"repro/internal/record"
	"repro/internal/storage/file"
)

// poolOnly hides an operator's ArenaOutput, so its records stay in the
// pool whoever consumes it: the reference side of the lifetime test.
type poolOnly struct{ Iterator }

// TestArenaLifetimes runs every consumer shape that can sit above an
// arena producer — a projection or a hash join — at batch sizes 1, 7 and
// 83, and checks the answer against the same plan with every record in
// the pool. The opted-in shapes must take the arena and the others must
// leave the producer in the pool; a record recycled while still in use
// shows up as a wrong answer. Pins must balance after Close (newTestEnv).
func TestArenaLifetimes(t *testing.T) {
	const rows, depts = 300, 5
	// The build side has three records per key, so a probe queues more
	// outputs than a batch of 1 takes.
	var dpairs [][2]int64
	for i := 0; i < 3*depts; i++ {
		dpairs = append(dpairs, [2]int64{int64(i % depts), int64(100 * i)})
	}
	var widePairs [][2]int64
	for i := 0; i < 3*(depts+2); i++ {
		widePairs = append(widePairs, [2]int64{int64(i % (depts + 2)), int64(i)})
	}
	sumBy := []AggSpec{{Func: AggCount}, {Func: AggSum, Field: 0}, {Func: AggMax, Field: 3}}
	shapes := []struct {
		name  string
		arena bool // the wrapped producer's output is in an arena
		// build returns the plan's root over env; wrap is applied to the
		// arena producer.
		build func(t *testing.T, env *testEnv, tb arenaTables, wrap func(Iterator) Iterator) Iterator
	}{
		{"project|agg", true, func(t *testing.T, env *testEnv, tb arenaTables, wrap func(Iterator) Iterator) Iterator {
			return hashAgg(t, env, wrap(project(t, env, scanOf(t, tb.emp), "id", "dept", "id * 2", "name")), record.Key{1}, sumBy)
		}},
		{"join|agg", true, func(t *testing.T, env *testEnv, tb arenaTables, wrap func(Iterator) Iterator) Iterator {
			return hashAgg(t, env, wrap(hashJoin(t, env, tb)), record.Key{5}, sumBy)
		}},
		{"join|project", true, func(t *testing.T, env *testEnv, tb arenaTables, wrap func(Iterator) Iterator) Iterator {
			return project(t, env, wrap(hashJoin(t, env, tb)), "id", "b * 2", "name", "salary * 1.1")
		}},
		{"fullouter|agg", true, func(t *testing.T, env *testEnv, tb arenaTables, wrap func(Iterator) Iterator) Iterator {
			// Keys 5 and 6 of wide have no emp: the right-only records
			// are padded and delivered after the probe phase.
			j, err := NewHashMatch(env.Env, MatchFullOuter, scanOf(t, tb.emp), scanOf(t, tb.wide), record.Key{1}, record.Key{0})
			if err != nil {
				t.Fatal(err)
			}
			return hashAgg(t, env, wrap(j), record.Key{4}, sumBy)
		}},
		{"project@root", true, func(t *testing.T, env *testEnv, tb arenaTables, wrap func(Iterator) Iterator) Iterator {
			return wrap(project(t, env, scanOf(t, tb.emp), "id", "dept", "id * 2", "name"))
		}},
		{"project|filter|agg", false, func(t *testing.T, env *testEnv, tb arenaTables, wrap func(Iterator) Iterator) Iterator {
			p := wrap(project(t, env, scanOf(t, tb.emp), "id", "dept", "id * 2", "name"))
			f, err := NewFilterExpr(env.Env, p, "id % 3 <> 1", expr.Compiled)
			if err != nil {
				t.Fatal(err)
			}
			return hashAgg(t, env, f, record.Key{1}, sumBy)
		}},
		{"join|semijoin", false, func(t *testing.T, env *testEnv, tb arenaTables, wrap func(Iterator) Iterator) Iterator {
			j := wrap(hashJoin(t, env, tb))
			odd := scanOf(t, tb.odd)
			s, err := NewHashMatch(env.Env, MatchSemi, j, odd, record.Key{1}, record.Key{0})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{"project@build", false, func(t *testing.T, env *testEnv, tb arenaTables, wrap func(Iterator) Iterator) Iterator {
			emp := scanOf(t, tb.emp)
			d := wrap(project(t, env, scanOf(t, tb.d), "a", "b", "b * 2"))
			j, err := NewHashMatch(env.Env, MatchJoin, emp, d, record.Key{1}, record.Key{0})
			if err != nil {
				t.Fatal(err)
			}
			return j
		}},
		{"project|sort", false, func(t *testing.T, env *testEnv, tb arenaTables, wrap func(Iterator) Iterator) Iterator {
			p := wrap(project(t, env, scanOf(t, tb.emp), "id", "dept", "id * 2", "name"))
			return NewSort(env.Env, p, []record.SortSpec{{Field: 3}})
		}},
		{"join@exchange", false, func(t *testing.T, env *testEnv, tb arenaTables, wrap func(Iterator) Iterator) Iterator {
			emp, d := tb.emp, tb.d
			x, err := NewExchange(ExchangeConfig{
				Schema: empSchema.Concat(d.Schema()), Producers: 2, Consumers: 1, PacketSize: 16,
				NewProducer: func(int) (Iterator, error) {
					j, err := NewHashMatch(env.Env, MatchJoin, scanOf(t, emp), scanOf(t, d), record.Key{1}, record.Key{0})
					return wrap(j), err
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			return x.Consumer(0)
		}},
	}
	for _, shape := range shapes {
		for _, size := range []int{1, 7, 83} {
			t.Run(fmt.Sprintf("%s/batch=%d", shape.name, size), func(t *testing.T) {
				env := newTestEnv(t, 128)
				env.Env = env.WithBatchSize(size)
				tb := arenaTables{
					emp:  env.makeEmp(t, "emp", rows, depts),
					d:    env.makePairs(t, "d", dpairs),
					odd:  env.makeInts(t, "odd", 1, 3),
					wide: env.makePairs(t, "wide", widePairs),
				}
				want := drainSorted(t, shape.build(t, env, tb, func(it Iterator) Iterator { return poolOnly{it} }), size)
				st := &OpStats{}
				got := drainSorted(t, shape.build(t, env, tb, func(it Iterator) Iterator { return InstrumentWith(it, "producer", st) }), size)
				if st.Arena.Load() != shape.arena {
					t.Fatalf("producer output in an arena: %v, want %v", st.Arena.Load(), shape.arena)
				}
				if len(got) != len(want) {
					t.Fatalf("%d rows, want %d", len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("row %d: %s, want %s", i, got[i], want[i])
					}
				}
			})
		}
	}
}

type arenaTables struct{ emp, d, odd, wide *file.File }

func project(t *testing.T, env *testEnv, in Iterator, srcs ...string) Iterator {
	t.Helper()
	p, err := NewProjectExprs(env.Env, in, srcs, nil, expr.Compiled)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func hashJoin(t *testing.T, env *testEnv, tb arenaTables) Iterator {
	t.Helper()
	j, err := NewHashMatch(env.Env, MatchJoin, scanOf(t, tb.emp), scanOf(t, tb.d), record.Key{1}, record.Key{0})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func hashAgg(t *testing.T, env *testEnv, in Iterator, groupBy record.Key, aggs []AggSpec) Iterator {
	t.Helper()
	h, err := NewHashAggregate(env.Env, in, groupBy, aggs)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// drainSorted drains it the way the query server does — the root opted
// into an arena, each batch released before the next pull — and returns
// the rows rendered and sorted.
func drainSorted(t *testing.T, it Iterator, size int) []string {
	t.Helper()
	UseArena(it)
	rows, err := Collect(it, size)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

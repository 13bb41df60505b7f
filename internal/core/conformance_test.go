package core

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/record"
)

// TestIteratorProtocolConformance checks every operator against the
// open-next-close contract uniformly:
//
//   - NextBatch before Open fails
//   - Close before Open fails
//   - double Open fails
//   - Open → drain → Close works and leaks no pins
//   - double Close (after a successful Close) fails
//   - Open → Close without draining works and leaks no pins
//   - Schema() is non-nil and stable
//
// Every case runs twice: on the bare operator and wrapped in
// core.Instrument, proving the instrumentation adapter is protocol-
// transparent (errors, EOS and pin ownership pass through unchanged)
// and that its counters reflect exactly the calls made.
//
// Anonymous inputs only work if every operator honours the same protocol;
// this is the uniformity §3 of the paper is about.
func TestIteratorProtocolConformance(t *testing.T) {
	type mk struct {
		name  string
		build func(env *testEnv) (Iterator, error)
	}
	makers := []mk{
		{"filescan", func(env *testEnv) (Iterator, error) {
			return NewFileScan(env.makeEmp(t, "t", 50, 4), nil, false)
		}},
		{"filter", func(env *testEnv) (Iterator, error) {
			return NewFilterExpr(env.Env, scanOf(t, env.makeEmp(t, "t", 50, 4)), "dept = 1", expr.Compiled)
		}},
		{"project", func(env *testEnv) (Iterator, error) {
			return NewProjectExprs(env.Env, scanOf(t, env.makeEmp(t, "t", 50, 4)),
				[]string{"id + 1"}, []string{"x"}, expr.Interpreted)
		}},
		{"sort", func(env *testEnv) (Iterator, error) {
			return NewSort(env.Env, scanOf(t, env.makeEmp(t, "t", 50, 4)),
				[]record.SortSpec{{Field: 0, Desc: true}}), nil
		}},
		{"merge", func(env *testEnv) (Iterator, error) {
			a := env.makeInts(t, "a", 1, 3)
			b := env.makeInts(t, "b", 2, 4)
			return NewMergeSpec([]Iterator{scanOf(t, a), scanOf(t, b)}, []record.SortSpec{{Field: 0}})
		}},
		{"hashmatch", func(env *testEnv) (Iterator, error) {
			l := env.makePairs(t, "l", [][2]int64{{1, 2}, {3, 4}})
			r := env.makePairs(t, "r", [][2]int64{{1, 5}})
			return NewHashMatch(env.Env, MatchJoin, scanOf(t, l), scanOf(t, r), record.Key{0}, record.Key{0})
		}},
		{"mergematch", func(env *testEnv) (Iterator, error) {
			l := env.makePairs(t, "l", [][2]int64{{1, 2}, {3, 4}})
			r := env.makePairs(t, "r", [][2]int64{{1, 5}})
			return NewMergeMatchSorted(env.Env, MatchFullOuter, scanOf(t, l), scanOf(t, r), record.Key{0}, record.Key{0})
		}},
		{"nestedloops", func(env *testEnv) (Iterator, error) {
			l := env.makeInts(t, "l", 1, 2)
			r := env.makeInts(t, "r", 3)
			return NewNestedLoops(env.Env, scanOf(t, l), scanOf(t, r), "$0 < $1", expr.Compiled)
		}},
		{"hashaggregate", func(env *testEnv) (Iterator, error) {
			return NewHashAggregate(env.Env, scanOf(t, env.makeEmp(t, "t", 50, 4)),
				record.Key{1}, []AggSpec{{Func: AggCount}})
		}},
		{"sortaggregate", func(env *testEnv) (Iterator, error) {
			in := NewSort(env.Env, scanOf(t, env.makeEmp(t, "t", 50, 4)), []record.SortSpec{{Field: 1}})
			return NewSortAggregate(env.Env, in, record.Key{1}, []AggSpec{{Func: AggCount}})
		}},
		{"hashdistinct", func(env *testEnv) (Iterator, error) {
			return NewHashDistinct(env.Env, scanOf(t, env.makeInts(t, "t", 1, 1, 2)))
		}},
		{"hashdivision", func(env *testEnv) (Iterator, error) {
			dv := env.makePairs(t, "dv", [][2]int64{{1, 1}, {1, 2}})
			ds := env.makeInts(t, "ds", 1, 2)
			return NewHashDivision(env.Env, scanOf(t, dv), scanOf(t, ds),
				record.Key{0}, record.Key{1}, record.Key{0})
		}},
		{"sortdivision", func(env *testEnv) (Iterator, error) {
			dv := env.makePairs(t, "dv", [][2]int64{{1, 1}, {1, 2}})
			ds := env.makeInts(t, "ds", 1, 2)
			return NewSortDivision(env.Env, scanOf(t, dv), scanOf(t, ds),
				record.Key{0}, record.Key{1}, record.Key{0})
		}},
		{"chooseplan", func(env *testEnv) (Iterator, error) {
			return NewChoosePlan([]Iterator{scanOf(t, env.makeInts(t, "t", 1, 2))},
				func() (int, error) { return 0, nil })
		}},
		{"exchange", func(env *testEnv) (Iterator, error) {
			f := env.makeInts(t, "t", shuffled(100, 33)...)
			x, err := NewExchange(ExchangeConfig{
				Schema: intSchema, Producers: 2, Consumers: 1,
				FlowControl: true, Slack: 2, PacketSize: 4,
				NewProducer: func(int) (Iterator, error) { return NewFileScan(f, nil, false) },
			})
			if err != nil {
				return nil, err
			}
			return x.Consumer(0), nil
		}},
	}

	for _, m := range makers {
		m := m
		for _, wrapped := range []bool{false, true} {
			wrapped := wrapped
			name := m.name
			if wrapped {
				name += "/instrumented"
			}
			// build constructs the iterator under test, optionally wrapped;
			// the second return is non-nil only in the instrumented variant.
			build := func(env *testEnv) (Iterator, *Instrumented, error) {
				it, err := m.build(env)
				if err != nil || !wrapped {
					return it, nil, err
				}
				ins := Instrument(it, m.name)
				return ins, ins, nil
			}
			t.Run(name, func(t *testing.T) {
				// Protocol violations.
				env := newTestEnv(t, 1024)
				it, ins, err := build(env)
				if err != nil {
					t.Fatal(err)
				}
				if it.Schema() == nil {
					t.Fatal("nil schema")
				}
				if err := it.NextBatch(NewBatch(1)); err == nil {
					t.Error("next before open succeeded")
				}
				if err := it.Close(); err == nil {
					t.Error("close before open succeeded")
				}
				if err := it.Open(); err != nil {
					t.Fatal(err)
				}
				if err := it.Open(); err == nil {
					t.Error("double open succeeded")
				}
				schema := it.Schema()
				// Full drain, record-at-a-time.
				b := NewBatch(1)
				rows, calls := int64(0), int64(0)
				for {
					calls++
					if err := it.NextBatch(b); err != nil {
						t.Fatal(err)
					}
					if b.Len() == 0 {
						break
					}
					for _, r := range b.Recs() {
						if _, err := schema.Decode(r.Data); err != nil {
							t.Fatalf("record does not decode under the schema: %v", err)
						}
					}
					rows += int64(b.Len())
					b.Release()
				}
				if rows == 0 {
					t.Fatal("operator produced no rows; conformance fixture broken")
				}
				if err := it.Close(); err != nil {
					t.Fatal(err)
				}
				if err := it.Close(); err == nil {
					t.Error("double close succeeded")
				}
				env.checkNoPinLeak(t)

				if ins != nil {
					// The wrapper counted every call above, including the
					// rejected misuse ones: next-before-open + the drain's;
					// close-before-open + close + double close; open + double
					// open. Counting failures too is deliberate — misuse
					// shows up in the report rather than vanishing.
					st := ins.Stats().Snapshot()
					if st.Rows != rows {
						t.Errorf("instrumented rows = %d, drained %d", st.Rows, rows)
					}
					if want := calls + 1; st.NextCalls != want {
						t.Errorf("instrumented calls = %d, want %d", st.NextCalls, want)
					}
					if st.Opens != 2 {
						t.Errorf("instrumented opens = %d, want 2", st.Opens)
					}
					if st.Closes != 3 {
						t.Errorf("instrumented closes = %d, want 3", st.Closes)
					}
					if ins.inner == nil || ins.Name() != m.name {
						t.Errorf("wrapper identity lost: name=%q", ins.Name())
					}
				}

				// Early close without draining (fresh instance, fresh world).
				env2 := newTestEnv(t, 1024)
				it2, ins2, err := build(env2)
				if err != nil {
					t.Fatal(err)
				}
				if err := it2.Open(); err != nil {
					t.Fatal(err)
				}
				b2 := NewBatch(1)
				if err := it2.NextBatch(b2); err != nil {
					t.Fatal(err)
				}
				b2.Release()
				if err := it2.Close(); err != nil {
					t.Fatal(err)
				}
				env2.checkNoPinLeak(t)
				if n := len(env2.Temp.List()); n != 0 {
					t.Fatalf("%d temp files left after early close", n)
				}
				if ins2 != nil {
					st := ins2.Stats().Snapshot()
					if st.Opens != 1 || st.Closes != 1 || st.NextCalls != 1 {
						t.Errorf("early-close counters: opens=%d closes=%d calls=%d, want 1/1/1",
							st.Opens, st.Closes, st.NextCalls)
					}
				}
			})
		}
	}
}

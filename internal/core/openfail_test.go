package core

import (
	"cmp"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/record"
)

// failOpen is an iterator whose Open always fails with a recognisable
// root-cause error. Schema is valid so operators can be constructed.
type failOpen struct{ schema *record.Schema }

var errRootCause = errors.New("disk on fire")

func (f *failOpen) Schema() *record.Schema { return f.schema }
func (f *failOpen) Open() error            { return errRootCause }
func (f *failOpen) NextBatch(*Batch) error { return errState("failopen", "next before open") }
func (f *failOpen) Close() error           { return errState("failopen", "close before open") }

// TestCloseAfterFailedOpen drives every stop-and-go operator through the
// standard drain sequence a plan executor uses on error — Open fails,
// Close runs unconditionally — and asserts (1) Open surfaces the input's
// root-cause error, (2) the Close is a no-op success instead of the
// "close before open" state error that used to mask the cause, (3) a
// *second* Close still reports the state error (the no-op consumes the
// failed-open condition, it does not disable the guard), and (4) no
// buffer pins leak from partially opened inputs.
func TestCloseAfterFailedOpen(t *testing.T) {
	pairSchema := record.MustSchema(
		record.Field{Name: "a", Type: record.TInt},
		record.Field{Name: "b", Type: record.TInt},
	)
	fail := func() Iterator { return &failOpen{schema: intSchema} }
	failPairs := func() Iterator { return &failOpen{schema: pairSchema} }

	cases := []struct {
		name  string
		build func(env *testEnv) (Iterator, error)
	}{
		{"sort", func(env *testEnv) (Iterator, error) {
			return NewSort(env.Env, fail(), []record.SortSpec{{Field: 0}}), nil
		}},
		{"merge-first", func(env *testEnv) (Iterator, error) {
			return NewMergeSpec([]Iterator{fail(), fail()}, []record.SortSpec{{Field: 0}})
		}},
		{"merge-partial", func(env *testEnv) (Iterator, error) {
			// The first input opens and contributes a pinned heap entry
			// before the second input's Open fails: the unwind must unfix
			// and close it (checked by checkNoPinLeak below).
			good := scanOf(t, env.makeInts(t, "good", 1, 2, 3))
			return NewMergeSpec([]Iterator{good, fail()}, []record.SortSpec{{Field: 0}})
		}},
		{"hashmatch-left", func(env *testEnv) (Iterator, error) {
			r := scanOf(t, env.makeInts(t, "r", 1))
			return NewHashMatch(env.Env, MatchJoin, fail(), r, record.Key{0}, record.Key{0})
		}},
		{"hashmatch-right", func(env *testEnv) (Iterator, error) {
			l := scanOf(t, env.makeInts(t, "l", 1))
			return NewHashMatch(env.Env, MatchJoin, l, fail(), record.Key{0}, record.Key{0})
		}},
		{"mergematch-left", func(env *testEnv) (Iterator, error) {
			r := scanOf(t, env.makeInts(t, "r", 1))
			return NewMergeMatchSorted(env.Env, MatchJoin, fail(), r, record.Key{0}, record.Key{0})
		}},
		{"mergematch-right", func(env *testEnv) (Iterator, error) {
			l := scanOf(t, env.makeInts(t, "l", 1))
			return NewMergeMatchSorted(env.Env, MatchJoin, l, fail(), record.Key{0}, record.Key{0})
		}},
		{"hashaggregate", func(env *testEnv) (Iterator, error) {
			return NewHashAggregate(env.Env, fail(), record.Key{0}, []AggSpec{{Func: AggCount}})
		}},
		{"sortaggregate", func(env *testEnv) (Iterator, error) {
			in := NewSort(env.Env, fail(), []record.SortSpec{{Field: 0}})
			return NewSortAggregate(env.Env, in, record.Key{0}, []AggSpec{{Func: AggCount}})
		}},
		{"hashdivision-left", func(env *testEnv) (Iterator, error) {
			ds := scanOf(t, env.makeInts(t, "ds", 1))
			return NewHashDivision(env.Env, failPairs(), ds, record.Key{0}, record.Key{1}, record.Key{0})
		}},
		{"hashdivision-right", func(env *testEnv) (Iterator, error) {
			dv := env.makePairs(t, "dv", [][2]int64{{1, 1}})
			return NewHashDivision(env.Env, scanOf(t, dv), fail(), record.Key{0}, record.Key{1}, record.Key{0})
		}},
		{"sortdivision", func(env *testEnv) (Iterator, error) {
			ds := scanOf(t, env.makeInts(t, "ds", 1))
			return NewSortDivision(env.Env, failPairs(), ds, record.Key{0}, record.Key{1}, record.Key{0})
		}},
		{"nestedloops-left", func(env *testEnv) (Iterator, error) {
			r := scanOf(t, env.makeInts(t, "r", 1))
			return NewNestedLoops(env.Env, fail(), r, "$0 < $1", expr.Interpreted)
		}},
		{"nestedloops-right", func(env *testEnv) (Iterator, error) {
			l := scanOf(t, env.makeInts(t, "l", 1))
			return NewNestedLoops(env.Env, l, fail(), "$0 < $1", expr.Interpreted)
		}},
		{"chooseplan", func(env *testEnv) (Iterator, error) {
			return NewChoosePlan([]Iterator{fail()}, func() (int, error) { return 0, nil })
		}},
		{"chooseplan-decision", func(env *testEnv) (Iterator, error) {
			good := scanOf(t, env.makeInts(t, "t", 1))
			return NewChoosePlan([]Iterator{good}, func() (int, error) { return 0, errRootCause })
		}},
	}

	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			env := newTestEnv(t, 1024)
			it, err := c.build(env)
			if err != nil {
				t.Fatal(err)
			}
			err = it.Open()
			if err == nil {
				t.Fatal("open of a failing plan succeeded")
			}
			if !errors.Is(err, errRootCause) {
				t.Fatalf("open error does not carry the root cause: %v", err)
			}
			if err := it.Close(); err != nil {
				t.Fatalf("close after failed open must be a no-op, got: %v", err)
			}
			// The no-op consumed the failed-open condition; the protocol
			// guard is back in force.
			if err := it.Close(); err == nil {
				t.Error("second close after failed open succeeded; state guard lost")
			} else if !strings.Contains(err.Error(), "close before open") {
				t.Errorf("second close: unexpected error %v", err)
			}
			env.checkNoPinLeak(t)
			if n := len(env.Temp.List()); n != 0 {
				t.Fatalf("%d temp files left after failed open", n)
			}
		})
	}
}

// failAfter passes the first two batches of its input through and fails
// the third NextBatch with errRootCause, leaving the batch empty.
type failAfter struct {
	Iterator
	calls int
}

func (f *failAfter) Open() error { f.calls = 0; return f.Iterator.Open() }
func (f *failAfter) NextBatch(b *Batch) error {
	if f.calls++; f.calls > 2 {
		b.Reset()
		return errRootCause
	}
	return f.Iterator.NextBatch(b)
}

// TestBatchConsumerErrorReleases drives the batch consumers into an
// input that fails after two batches of pinned file-scan records, and a
// join into an output record the pool has no frame for, at several batch
// sizes and with the output in the pool and, where the operator takes
// one, in an arena. The root cause must come back. Right after it, the
// pins beyond those held after Open may only be the open input scan's
// current page and the operator's temp file's tail page; after Close no
// pin and no temp file is left. The inputs the stop-and-go operators
// drain in Open fail there: Open must return the root cause with no pin
// beyond those held before it.
func TestBatchConsumerErrorReleases(t *testing.T) {
	// emp's dept is i%8; keys holds the even depts only, so a semijoin
	// passes half its probe records on and drops the other half.
	failingEmp := func(env *testEnv) Iterator {
		return &failAfter{Iterator: scanOf(t, env.makeEmp(t, "emp", 300, 8))}
	}
	keys := func(env *testEnv) Iterator { return scanOf(t, env.makeInts(t, "k", 0, 2, 4, 6)) }
	cases := []struct {
		name   string
		writes bool   // the operator writes its output to a temp file
		arena  bool   // ... or, opted in, to an arena
		cause  string // the error's text; "" for errRootCause
		frames int    // the pool's size; 0 for 256
		build  func(e *Env, env *testEnv) (Iterator, error)
	}{
		{"hashaggregate", true, false, "", 0, func(e *Env, env *testEnv) (Iterator, error) {
			return NewHashAggregate(e, failingEmp(env), record.Key{1}, []AggSpec{{Func: AggCount}, {Func: AggSum, Field: 0}})
		}},
		{"sortaggregate", true, false, "", 0, func(e *Env, env *testEnv) (Iterator, error) {
			pairs := make([][2]int64, 300)
			for i := range pairs {
				pairs[i] = [2]int64{int64(i / 5), int64(i)}
			}
			in := &failAfter{Iterator: scanOf(t, env.makePairs(t, "p", pairs))}
			return NewSortAggregate(e, in, record.Key{0}, []AggSpec{{Func: AggCount}, {Func: AggMax, Field: 1}})
		}},
		{"hashmatch-build/join", true, true, "", 0, func(e *Env, env *testEnv) (Iterator, error) {
			return NewHashMatch(e, MatchJoin, keys(env), failingEmp(env), record.Key{0}, record.Key{1})
		}},
		{"hashmatch-build/semi", false, false, "", 0, func(e *Env, env *testEnv) (Iterator, error) {
			return NewHashMatch(e, MatchSemi, keys(env), failingEmp(env), record.Key{0}, record.Key{1})
		}},
		{"hashmatch-probe/join", true, true, "", 0, func(e *Env, env *testEnv) (Iterator, error) {
			return NewHashMatch(e, MatchJoin, failingEmp(env), keys(env), record.Key{1}, record.Key{0})
		}},
		{"hashmatch-probe/semi", false, false, "", 0, func(e *Env, env *testEnv) (Iterator, error) {
			return NewHashMatch(e, MatchSemi, failingEmp(env), keys(env), record.Key{1}, record.Key{0})
		}},
		// Three frames hold the build page, the probe page and the
		// output's tail page: the output's second page finds no frame,
		// mid-probe, with the probe records before it (the failing one
		// too) collected for release.
		{"hashmatch-probe/combine", true, false, "all frames pinned", 3, func(e *Env, env *testEnv) (Iterator, error) {
			return NewHashMatch(e, MatchJoin, scanOf(t, env.makeEmp(t, "emp", 300, 8)), keys(env), record.Key{1}, record.Key{0})
		}},
	}
	drained := []struct {
		name  string
		build func(e *Env, env *testEnv) (Iterator, error)
	}{
		// A run size of 1 writes a run before the failure at every batch
		// size, under both run generators.
		{"sort/quicksort", func(e *Env, env *testEnv) (Iterator, error) {
			s := NewSort(e, failingEmp(env), []record.SortSpec{{Field: 1}})
			s.RunSize = 1
			return s, nil
		}},
		{"sort/replacement", func(e *Env, env *testEnv) (Iterator, error) {
			s := NewSort(e, failingEmp(env), []record.SortSpec{{Field: 1}})
			s.RunSize, s.RunGen = 1, RunGenReplacementSelection
			return s, nil
		}},
		{"hashdivision/divisor", func(e *Env, env *testEnv) (Iterator, error) {
			dv := scanOf(t, env.makePairs(t, "dv", [][2]int64{{1, 0}, {1, 1}}))
			return NewHashDivision(e, dv, failingEmp(env), record.Key{0}, record.Key{1}, record.Key{1})
		}},
		{"hashdivision/dividend", func(e *Env, env *testEnv) (Iterator, error) {
			return NewHashDivision(e, failingEmp(env), keys(env), record.Key{0}, record.Key{1}, record.Key{0})
		}},
		{"sortdivision/divisor", func(e *Env, env *testEnv) (Iterator, error) {
			dv := scanOf(t, env.makePairs(t, "dv", [][2]int64{{1, 0}, {1, 1}}))
			return NewSortDivision(e, dv, failingEmp(env), record.Key{0}, record.Key{1}, record.Key{1})
		}},
		{"nestedloops/inner", func(e *Env, env *testEnv) (Iterator, error) {
			return NewNestedLoops(e, keys(env), failingEmp(env), "", expr.Interpreted)
		}},
	}
	for _, c := range drained {
		for _, size := range []int{1, 7, 83} {
			t.Run(fmt.Sprintf("%s/batch=%d/pool", c.name, size), func(t *testing.T) {
				env := newTestEnv(t, 256)
				it, err := c.build(env.WithBatchSize(size), env)
				if err != nil {
					t.Fatal(err)
				}
				base := env.pool.Stats().CurrentlyFixedHint
				if err := it.Open(); !errors.Is(err, errRootCause) {
					t.Fatalf("open: %v, want the input's root cause", err)
				}
				if n := env.pool.Stats().CurrentlyFixedHint - base; n != 0 {
					t.Fatalf("%d pins more after the failed open than before it", n)
				}
				if err := it.Close(); err != nil {
					t.Fatalf("close after the failed open: %v", err)
				}
				env.checkNoPinLeak(t)
				if n := len(env.Temp.List()); n != 0 {
					t.Fatalf("%d temp files left after close", n)
				}
			})
		}
	}
	for _, c := range cases {
		stores := []bool{false}
		if c.arena {
			stores = append(stores, true)
		}
		for _, size := range []int{1, 7, 83} {
			for _, arena := range stores {
				store := map[bool]string{false: "pool", true: "arena"}[arena]
				t.Run(fmt.Sprintf("%s/batch=%d/%s", c.name, size, store), func(t *testing.T) {
					env := newTestEnv(t, cmp.Or(c.frames, 256))
					it, err := c.build(env.WithBatchSize(size), env)
					if err != nil {
						t.Fatal(err)
					}
					if arena && !UseArena(it) {
						t.Fatal("the operator refused the arena")
					}
					err = it.Open()
					held, slack := env.pool.Stats().CurrentlyFixedHint, int64(0)
					if err == nil {
						slack++ // the input scan stays open until Close
					}
					if c.writes && !arena {
						slack++
					}
					for b := NewBatch(size); err == nil; b.Release() {
						if err = it.NextBatch(b); err == nil && b.Len() == 0 {
							t.Fatal("the stream ended without the input's error")
						}
					}
					if c.cause == "" && !errors.Is(err, errRootCause) || !strings.Contains(err.Error(), c.cause) {
						t.Fatalf("error does not carry the root cause: %v", err)
					}
					if n := env.pool.Stats().CurrentlyFixedHint - held; n < 0 || n > slack {
						t.Fatalf("%d pins more after the error than after Open, want at most %d", n, slack)
					}
					if err := it.Close(); err != nil {
						t.Fatalf("close after the error: %v", err)
					}
					env.checkNoPinLeak(t)
					if n := len(env.Temp.List()); n != 0 {
						t.Fatalf("%d temp files left after close", n)
					}
				})
			}
		}
	}
}

// TestReopenAfterClose takes each operator that keeps the shared
// open/close state through Open, NextBatch to the end and Close twice at
// batch size 7: both passes must count the same records, and no pin may
// be left after either Close.
func TestReopenAfterClose(t *testing.T) {
	divPairs := func(env *testEnv) Iterator {
		// Quotients 0..9 over divisor values 0..3; those divisible by 3
		// lack value 3, so six quotients qualify.
		var pairs [][2]int64
		for i := int64(0); i < 40; i++ {
			if q, d := i/4, i%4; q%3 != 0 || d != 3 {
				pairs = append(pairs, [2]int64{q, d})
			}
		}
		return scanOf(t, env.makePairs(t, "dv", pairs))
	}
	emp := func(env *testEnv) Iterator { return scanOf(t, env.makeEmp(t, "emp", 300, 8)) }
	keys := func(env *testEnv) Iterator { return scanOf(t, env.makeInts(t, "k", 0, 1, 2, 3)) }
	byDept := []record.SortSpec{{Field: 1}}
	cases := []struct {
		name  string
		build func(e *Env, env *testEnv) (Iterator, error)
	}{
		{"sort", func(e *Env, env *testEnv) (Iterator, error) {
			s := NewSort(e, emp(env), byDept)
			s.RunSize, s.FanIn = 40, 2
			return s, nil
		}},
		{"merge", func(e *Env, env *testEnv) (Iterator, error) {
			a, b := scanOf(t, env.makeInts(t, "a", 1, 3, 5)), scanOf(t, env.makeInts(t, "b", 2, 4, 6))
			return NewMergeSpec([]Iterator{a, b}, []record.SortSpec{{Field: 0}})
		}},
		{"mergematch", func(e *Env, env *testEnv) (Iterator, error) {
			return NewMergeMatchSorted(e, MatchJoin, emp(env), keys(env), record.Key{1}, record.Key{0})
		}},
		{"hashmatch", func(e *Env, env *testEnv) (Iterator, error) {
			return NewHashMatch(e, MatchJoin, emp(env), keys(env), record.Key{1}, record.Key{0})
		}},
		{"hashaggregate", func(e *Env, env *testEnv) (Iterator, error) {
			return NewHashAggregate(e, emp(env), record.Key{1}, []AggSpec{{Func: AggCount}})
		}},
		{"sortaggregate", func(e *Env, env *testEnv) (Iterator, error) {
			return NewSortAggregate(e, NewSort(e, emp(env), byDept), record.Key{1}, []AggSpec{{Func: AggCount}})
		}},
		{"hashdivision", func(e *Env, env *testEnv) (Iterator, error) {
			return NewHashDivision(e, divPairs(env), keys(env), record.Key{0}, record.Key{1}, record.Key{0})
		}},
		{"sortdivision", func(e *Env, env *testEnv) (Iterator, error) {
			return NewSortDivision(e, divPairs(env), keys(env), record.Key{0}, record.Key{1}, record.Key{0})
		}},
		{"nestedloops", func(e *Env, env *testEnv) (Iterator, error) {
			return NewNestedLoops(e, keys(env), emp(env), "$0 = $2", expr.Interpreted)
		}},
		{"chooseplan", func(e *Env, env *testEnv) (Iterator, error) {
			return NewChoosePlan([]Iterator{emp(env)}, func() (int, error) { return 0, nil })
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			env := newTestEnv(t, 256)
			it, err := c.build(env.WithBatchSize(7), env)
			if err != nil {
				t.Fatal(err)
			}
			var counts [2]int
			for i := range counts {
				if counts[i], err = Drain(it, 7); err != nil {
					t.Fatalf("pass %d: %v", i+1, err)
				}
				env.checkNoPinLeak(t)
				if n := len(env.Temp.List()); n != 0 {
					t.Fatalf("pass %d: %d temp files left after close", i+1, n)
				}
			}
			if counts[0] == 0 || counts[0] != counts[1] {
				t.Fatalf("counts %v, want two equal non-zero counts", counts)
			}
		})
	}
}

// TestHashAggregateReopenAfterFailedOpen re-opens a hash aggregate whose
// first Open failed midway through its input, over an input that now
// succeeds: the groups the failed pass started must not reach the output.
func TestHashAggregateReopenAfterFailedOpen(t *testing.T) {
	env := newTestEnv(t, 256)
	in := &failAfter{Iterator: scanOf(t, env.makeEmp(t, "emp", 300, 8))}
	h, err := NewHashAggregate(env.WithBatchSize(7), in, record.Key{1}, []AggSpec{{Func: AggCount}})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Open(); !errors.Is(err, errRootCause) {
		t.Fatalf("open: %v, want the input's root cause", err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	h.input = in.Iterator
	rows, err := Collect(h, 7)
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for _, r := range rows {
		total += r[1].I
	}
	if len(rows) != 8 || total != 300 {
		t.Fatalf("%d groups counting %d records, want 8 counting 300", len(rows), total)
	}
	env.checkNoPinLeak(t)
}

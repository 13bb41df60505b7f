package core

import (
	"errors"
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

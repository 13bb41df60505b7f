package core

import (
	"testing"

	"repro/internal/record"
)

// TestBushyParallelismSortMergeJoin reproduces the paper's §4.2 example
// of bushy parallelism: "in order to sort two inputs into a merge-join in
// parallel, the first or both inputs are separated from the merge-join by
// an exchange operation. The parent process turns to the second sort
// immediately after forking the child process that will produce the first
// input in sorted order. Thus, the two sort operations are working in
// parallel."
func TestBushyParallelismSortMergeJoin(t *testing.T) {
	env := newTestEnv(t, 1024)
	left := env.makePairs(t, "l", pairsMod(600, 37))
	right := env.makePairs(t, "r", pairsMod(400, 37))

	// Both join inputs are sorted behind their own exchange: the sorts
	// run in producer goroutines while the parent opens the join.
	xLeft, err := NewExchange(ExchangeConfig{
		Schema:    left.Schema(),
		Producers: 1,
		Consumers: 1,
		NewProducer: func(int) (Iterator, error) {
			sc, err := NewFileScan(left, nil, false)
			if err != nil {
				return nil, err
			}
			return NewSort(env.Env, sc, []record.SortSpec{{Field: 0}}), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	xRight, err := NewExchange(ExchangeConfig{
		Schema:    right.Schema(),
		Producers: 1,
		Consumers: 1,
		NewProducer: func(int) (Iterator, error) {
			sc, err := NewFileScan(right, nil, false)
			if err != nil {
				return nil, err
			}
			return NewSort(env.Env, sc, []record.SortSpec{{Field: 0}}), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// The merge-join sees two anonymous, already-sorted inputs; it has no
	// way of knowing they are produced by parallel subtrees.
	join, err := NewMergeMatch(env.Env, MatchJoin, xLeft.Consumer(0), xRight.Consumer(0),
		record.Key{0}, record.Key{0})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(join, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Reference cardinality via the serial hash join.
	ref, err := NewHashMatch(env.Env,
		MatchJoin, scanOf(t, left), scanOf(t, right), record.Key{0}, record.Key{0})
	if err != nil {
		t.Fatal(err)
	}
	refRows, err := Collect(ref, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(refRows) {
		t.Fatalf("bushy merge-join: %d rows, reference %d", len(rows), len(refRows))
	}
	// Output must be sorted on the join key (merge-join property).
	for i := 1; i < len(rows); i++ {
		if rows[i][0].I < rows[i-1][0].I {
			t.Fatal("merge-join output not sorted")
		}
	}
	env.checkNoPinLeak(t)
}

func pairsMod(n int, mod int64) [][2]int64 {
	out := make([][2]int64, n)
	for i := range out {
		out[i] = [2]int64{int64(i) % mod, int64(i)}
	}
	return out
}

// TestBushyBothJoinInputsIntermediate checks the §4.6 comparison with
// GAMMA: "in Volcano, both join inputs can be intermediate results" —
// here each input is itself a filter over a parallel exchange, i.e.
// neither probing nor building relation is a stored file.
func TestBushyBothJoinInputsIntermediate(t *testing.T) {
	env := newTestEnv(t, 1024)
	base := env.makePairs(t, "base", pairsMod(1000, 100))

	mkSide := func(pred string) (Iterator, error) {
		x, err := NewExchange(ExchangeConfig{
			Schema:    base.Schema(),
			Producers: 2,
			Consumers: 1,
			NewProducer: func(g int) (Iterator, error) {
				sc, err := NewFileScan(base, nil, false)
				if err != nil {
					return nil, err
				}
				half, err := NewFilterExpr(env.Env, sc, map[int]string{0: "b % 2 = 0", 1: "b % 2 = 1"}[g], 0)
				if err != nil {
					return nil, err
				}
				return NewFilterExpr(env.Env, half, pred, 0)
			},
		})
		if err != nil {
			return nil, err
		}
		return x.Consumer(0), nil
	}
	l, err := mkSide("a < 50")
	if err != nil {
		t.Fatal(err)
	}
	r, err := mkSide("a >= 25")
	if err != nil {
		t.Fatal(err)
	}
	join, err := NewHashMatch(env.Env, MatchJoin, l, r, record.Key{0}, record.Key{0})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(join, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Keys 25..49 qualify on both sides: 25 keys × 10 left rows × 10
	// right rows each = 2500 pairs.
	if len(rows) != 25*10*10 {
		t.Fatalf("rows = %d, want 2500", len(rows))
	}
	env.checkNoPinLeak(t)
}

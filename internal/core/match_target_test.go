package core

import (
	"fmt"
	"testing"

	"repro/internal/record"
)

// TestMatchHonorsBatchTarget holds both match algorithms to the
// protocol's bound when one step produces more records than the batch
// takes: a 40×40 join on a two-valued key makes 20 outputs per probe
// record (hash) and 400 per key group (merge). What does not fit stays
// queued for the next call, so batch size 1 is record-at-a-time above a
// join too. Closing in the middle of a queue releases it.
func TestMatchHonorsBatchTarget(t *testing.T) {
	const n, keys = 40, 2
	algos := []struct {
		name string
		make func(env *Env, op MatchOp, l, r Iterator, k record.Key) (Iterator, error)
	}{
		{"hash", func(env *Env, op MatchOp, l, r Iterator, k record.Key) (Iterator, error) {
			return NewHashMatch(env, op, l, r, k, k)
		}},
		{"merge", func(env *Env, op MatchOp, l, r Iterator, k record.Key) (Iterator, error) {
			return NewMergeMatchSorted(env, op, l, r, k, k)
		}},
	}
	pairs := func(base int64) [][2]int64 {
		out := make([][2]int64, n)
		for i := range out {
			out[i] = [2]int64{int64(i % keys), base + int64(i)}
		}
		return out
	}
	open := func(t *testing.T, env *testEnv, make func(*Env, MatchOp, Iterator, Iterator, record.Key) (Iterator, error)) Iterator {
		l := scanOf(t, env.makePairs(t, "l", pairs(0)))
		r := scanOf(t, env.makePairs(t, "r", pairs(100)))
		it, err := make(env.Env, MatchJoin, l, r, record.Key{0})
		if err != nil {
			t.Fatal(err)
		}
		if err := it.Open(); err != nil {
			t.Fatal(err)
		}
		return it
	}
	for _, algo := range algos {
		for _, target := range []int{1, 7} {
			t.Run(fmt.Sprintf("%s/target=%d", algo.name, target), func(t *testing.T) {
				env := newTestEnv(t, 64)
				it := open(t, env, algo.make)
				b := NewBatch(target)
				got := 0
				for {
					if err := it.NextBatch(b); err != nil {
						t.Fatal(err)
					}
					if b.Len() == 0 {
						break
					}
					if b.Len() > target {
						t.Fatalf("a call delivered %d records to a batch of %d", b.Len(), target)
					}
					got += b.Len()
					b.Release()
				}
				if err := it.Close(); err != nil {
					t.Fatal(err)
				}
				if want := n * n / keys; got != want {
					t.Fatalf("got %d records, want %d", got, want)
				}
			})
		}
		t.Run(algo.name+"/close-mid-queue", func(t *testing.T) {
			env := newTestEnv(t, 64)
			it := open(t, env, algo.make)
			b := NewBatch(1)
			for i := 0; i < 3; i++ {
				if err := it.NextBatch(b); err != nil {
					t.Fatal(err)
				}
				b.Release()
			}
			if err := it.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

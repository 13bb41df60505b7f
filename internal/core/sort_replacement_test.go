package core

import (
	"testing"

	"repro/internal/record"
)

func TestReplacementSelectionSortsCorrectly(t *testing.T) {
	for _, n := range []int{0, 1, 7, 500, 3000} {
		env := newTestEnv(t, 512)
		vals := shuffled(n, int64(n)+5)
		f := env.makeInts(t, "t", vals...)
		s := NewSort(env.Env, scanOf(t, f), []record.SortSpec{{Field: 0}})
		s.RunSize = 16
		s.RunGen = RunGenReplacementSelection
		rows, err := Collect(s, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !equalInts(intsOf(rows, 0), sortedInts(vals)) {
			t.Fatalf("n=%d: replacement-selection sort wrong", n)
		}
		env.checkNoPinLeak(t)
		if left := len(env.Temp.List()); left != 0 {
			t.Fatalf("n=%d: %d temp files left", n, left)
		}
	}
}

func TestReplacementSelectionProducesFewerRuns(t *testing.T) {
	// On random input, replacement selection yields runs ~2x the heap
	// size, i.e. about half as many runs as quicksort batching.
	const n, runSize = 4000, 64
	counts := map[RunGen]int{}
	for _, gen := range []RunGen{RunGenQuicksort, RunGenReplacementSelection} {
		env := newTestEnv(t, 1024)
		f := env.makeInts(t, "t", shuffled(n, 99)...)
		s := NewSort(env.Env, scanOf(t, f), []record.SortSpec{{Field: 0}})
		s.RunSize = runSize
		s.RunGen = gen
		if _, err := Collect(s, 0); err != nil {
			t.Fatal(err)
		}
		counts[gen] = s.RunsGenerated()
	}
	q, r := counts[RunGenQuicksort], counts[RunGenReplacementSelection]
	if q != (n+runSize-1)/runSize {
		t.Fatalf("quicksort runs = %d, want %d", q, (n+runSize-1)/runSize)
	}
	// Expect roughly half; accept anything clearly better.
	if r >= q*3/4 {
		t.Fatalf("replacement selection runs = %d, not clearly fewer than %d", r, q)
	}
	t.Logf("runs: quicksort=%d replacement=%d", q, r)
}

func TestReplacementSelectionSortedInputSingleRun(t *testing.T) {
	// Already-sorted input collapses to ONE run regardless of heap size —
	// the classic replacement-selection property.
	env := newTestEnv(t, 512)
	vals := make([]int64, 2000)
	for i := range vals {
		vals[i] = int64(i)
	}
	f := env.makeInts(t, "t", vals...)
	s := NewSort(env.Env, scanOf(t, f), []record.SortSpec{{Field: 0}})
	s.RunSize = 16
	s.RunGen = RunGenReplacementSelection
	rows, err := Collect(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2000 {
		t.Fatalf("rows = %d", len(rows))
	}
	if s.RunsGenerated() != 1 {
		t.Fatalf("sorted input produced %d runs, want 1", s.RunsGenerated())
	}
}

func TestReplacementSelectionStability(t *testing.T) {
	env := newTestEnv(t, 512)
	pairs := make([][2]int64, 300)
	for i := range pairs {
		pairs[i] = [2]int64{int64(i % 5), int64(i)}
	}
	f := env.makePairs(t, "t", pairs)
	s := NewSort(env.Env, scanOf(t, f), []record.SortSpec{{Field: 0}})
	s.RunSize = 8
	s.RunGen = RunGenReplacementSelection
	rows, err := Collect(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	var lastKey, lastSeq int64 = -1, -1
	for _, r := range rows {
		if r[0].I != lastKey {
			lastKey, lastSeq = r[0].I, -1
		}
		if r[1].I <= lastSeq {
			t.Fatalf("stability broken: key %d seq %d after %d", r[0].I, r[1].I, lastSeq)
		}
		lastSeq = r[1].I
	}
}

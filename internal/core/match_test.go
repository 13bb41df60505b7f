package core

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/record"
)

// matchMaker builds either algorithm so every test runs against both.
type matchMaker func(env *testEnv, op MatchOp, l, r Iterator, lk, rk record.Key) (Iterator, error)

var matchAlgos = map[string]matchMaker{
	"hash": func(env *testEnv, op MatchOp, l, r Iterator, lk, rk record.Key) (Iterator, error) {
		return NewHashMatch(env.Env, op, l, r, lk, rk)
	},
	"merge": func(env *testEnv, op MatchOp, l, r Iterator, lk, rk record.Key) (Iterator, error) {
		return NewMergeMatchSorted(env.Env, op, l, r, lk, rk)
	},
}

// runMatch executes op over two pair-tables and returns the rows sorted
// for comparison.
func runMatch(t *testing.T, algo string, op MatchOp, left, right [][2]int64, lk, rk record.Key) [][]int64 {
	t.Helper()
	env := newTestEnv(t, 512)
	l := env.makePairs(t, "l", left)
	r := env.makePairs(t, "r", right)
	m, err := matchAlgos[algo](env, op, scanOf(t, l), scanOf(t, r), lk, rk)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Collect(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	env.checkNoPinLeak(t)
	if n := len(env.Temp.List()); n != 0 {
		t.Fatalf("%s %v: %d temp files left", algo, op, n)
	}
	out := make([][]int64, len(rows))
	for i, row := range rows {
		vals := make([]int64, len(row))
		for j, v := range row {
			vals[j] = v.I
		}
		out[i] = vals
	}
	sort.Slice(out, func(i, j int) bool {
		for k := range out[i] {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	return out
}

func rowsEqual(a, b [][]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

var (
	mLeft  = [][2]int64{{1, 10}, {2, 20}, {2, 21}, {3, 30}, {5, 50}}
	mRight = [][2]int64{{2, 200}, {2, 201}, {3, 300}, {4, 400}}
	k0     = record.Key{0}
)

func TestMatchJoin(t *testing.T) {
	want := [][]int64{
		{2, 20, 2, 200}, {2, 20, 2, 201},
		{2, 21, 2, 200}, {2, 21, 2, 201},
		{3, 30, 3, 300},
	}
	for algo := range matchAlgos {
		got := runMatch(t, algo, MatchJoin, mLeft, mRight, k0, k0)
		if !rowsEqual(got, want) {
			t.Errorf("%s join = %v, want %v", algo, got, want)
		}
	}
}

func TestMatchSemi(t *testing.T) {
	want := [][]int64{{2, 20}, {2, 21}, {3, 30}}
	for algo := range matchAlgos {
		got := runMatch(t, algo, MatchSemi, mLeft, mRight, k0, k0)
		if !rowsEqual(got, want) {
			t.Errorf("%s semi = %v, want %v", algo, got, want)
		}
	}
}

func TestMatchAnti(t *testing.T) {
	want := [][]int64{{1, 10}, {5, 50}}
	for algo := range matchAlgos {
		got := runMatch(t, algo, MatchAnti, mLeft, mRight, k0, k0)
		if !rowsEqual(got, want) {
			t.Errorf("%s anti = %v, want %v", algo, got, want)
		}
	}
}

func TestMatchOuterJoins(t *testing.T) {
	// Padded fields are zero (Volcano has no NULL).
	wantLeft := [][]int64{
		{1, 10, 0, 0},
		{2, 20, 2, 200}, {2, 20, 2, 201},
		{2, 21, 2, 200}, {2, 21, 2, 201},
		{3, 30, 3, 300},
		{5, 50, 0, 0},
	}
	wantRight := [][]int64{
		{0, 0, 4, 400},
		{2, 20, 2, 200}, {2, 20, 2, 201},
		{2, 21, 2, 200}, {2, 21, 2, 201},
		{3, 30, 3, 300},
	}
	wantFull := append(append([][]int64{}, wantLeft...), []int64{0, 0, 4, 400})
	sort.Slice(wantFull, func(i, j int) bool {
		for k := range wantFull[i] {
			if wantFull[i][k] != wantFull[j][k] {
				return wantFull[i][k] < wantFull[j][k]
			}
		}
		return false
	})
	for algo := range matchAlgos {
		if got := runMatch(t, algo, MatchLeftOuter, mLeft, mRight, k0, k0); !rowsEqual(got, wantLeft) {
			t.Errorf("%s leftouter = %v", algo, got)
		}
		if got := runMatch(t, algo, MatchRightOuter, mLeft, mRight, k0, k0); !rowsEqual(got, wantRight) {
			t.Errorf("%s rightouter = %v", algo, got)
		}
		if got := runMatch(t, algo, MatchFullOuter, mLeft, mRight, k0, k0); !rowsEqual(got, wantFull) {
			t.Errorf("%s fullouter = %v", algo, got)
		}
	}
}

// Set operations use whole-tuple keys.
var (
	setLeft  = [][2]int64{{1, 1}, {2, 2}, {2, 2}, {3, 3}}
	setRight = [][2]int64{{2, 2}, {3, 3}, {4, 4}, {4, 4}}
	k01      = record.Key{0, 1}
)

func TestMatchUnion(t *testing.T) {
	want := [][]int64{{1, 1}, {2, 2}, {3, 3}, {4, 4}}
	for algo := range matchAlgos {
		got := runMatch(t, algo, MatchUnion, setLeft, setRight, k01, k01)
		if !rowsEqual(got, want) {
			t.Errorf("%s union = %v, want %v", algo, got, want)
		}
	}
}

func TestMatchIntersect(t *testing.T) {
	want := [][]int64{{2, 2}, {3, 3}}
	for algo := range matchAlgos {
		got := runMatch(t, algo, MatchIntersect, setLeft, setRight, k01, k01)
		if !rowsEqual(got, want) {
			t.Errorf("%s intersect = %v, want %v", algo, got, want)
		}
	}
}

func TestMatchDifference(t *testing.T) {
	want := [][]int64{{1, 1}}
	for algo := range matchAlgos {
		got := runMatch(t, algo, MatchDifference, setLeft, setRight, k01, k01)
		if !rowsEqual(got, want) {
			t.Errorf("%s difference = %v, want %v", algo, got, want)
		}
	}
}

func TestMatchAntiDifference(t *testing.T) {
	want := [][]int64{{4, 4}} // R − L
	for algo := range matchAlgos {
		got := runMatch(t, algo, MatchAntiDifference, setLeft, setRight, k01, k01)
		if !rowsEqual(got, want) {
			t.Errorf("%s antidifference = %v, want %v", algo, got, want)
		}
	}
}

func TestMatchEmptyInputs(t *testing.T) {
	for algo := range matchAlgos {
		if got := runMatch(t, algo, MatchJoin, nil, mRight, k0, k0); len(got) != 0 {
			t.Errorf("%s join with empty left = %v", algo, got)
		}
		if got := runMatch(t, algo, MatchJoin, mLeft, nil, k0, k0); len(got) != 0 {
			t.Errorf("%s join with empty right = %v", algo, got)
		}
		if got := runMatch(t, algo, MatchAnti, mLeft, nil, k0, k0); len(got) != len(mLeft) {
			t.Errorf("%s anti with empty right = %v", algo, got)
		}
		if got := runMatch(t, algo, MatchUnion, nil, nil, k01, k01); len(got) != 0 {
			t.Errorf("%s union of empties = %v", algo, got)
		}
	}
}

func TestMatchValidation(t *testing.T) {
	env := newTestEnv(t, 64)
	l := env.makeInts(t, "l", 1)
	r := env.makeEmp(t, "r", 1, 1)
	// Union needs equal schemas.
	if _, err := NewHashMatch(env.Env, MatchUnion, scanOf(t, l), scanOf(t, r), k0, k0); err == nil {
		t.Fatal("union with differing schemas accepted")
	}
	// Key arity mismatch.
	if _, err := NewHashMatch(env.Env, MatchJoin, scanOf(t, l), scanOf(t, r), record.Key{0}, record.Key{0, 1}); err == nil {
		t.Fatal("key arity mismatch accepted")
	}
	if _, err := NewMergeMatch(env.Env, MatchJoin, scanOf(t, l), scanOf(t, r), nil, nil); err == nil {
		t.Fatal("empty keys accepted")
	}
}

// TestKeyTypesMustAgree holds both match algorithms and both division
// algorithms to keys of one type pairwise: an int paired with a float, or
// a string with an int, is a construction error naming both fields and
// their types, and nothing is left pinned.
func TestKeyTypesMustAgree(t *testing.T) {
	env := newTestEnv(t, 64)
	emp := env.makeEmp(t, "emp", 20, 4)
	build := map[string]func(lk, rk record.Key) error{
		"hashmatch": func(lk, rk record.Key) error {
			_, err := NewHashMatch(env.Env, MatchJoin, scanOf(t, emp), scanOf(t, emp), lk, rk)
			return err
		},
		"mergematch": func(lk, rk record.Key) error {
			_, err := NewMergeMatchSorted(env.Env, MatchJoin, scanOf(t, emp), scanOf(t, emp), lk, rk)
			return err
		},
		"hashdivision": func(lk, rk record.Key) error {
			_, err := NewHashDivision(env.Env, scanOf(t, emp), scanOf(t, emp), record.Key{1}, lk, rk)
			return err
		},
		"sortdivision": func(lk, rk record.Key) error {
			_, err := NewSortDivision(env.Env, scanOf(t, emp), scanOf(t, emp), record.Key{1}, lk, rk)
			return err
		},
	}
	for name, b := range build {
		if err := b(record.Key{0}, record.Key{1}); err != nil {
			t.Errorf("%s: int = int rejected: %v", name, err)
		}
		for _, c := range []struct {
			lk, rk record.Key
			want   string
		}{
			{record.Key{0}, record.Key{2}, "id (int) and salary (float)"},
			{record.Key{1, 3}, record.Key{1, 0}, "name (string) and id (int)"},
		} {
			err := b(c.lk, c.rk)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s on %v = %v: err = %v, want one naming %s", name, c.lk, c.rk, err, c.want)
			}
		}
	}
	env.checkNoPinLeak(t)
}

// Large randomized cross-check: hash and merge must agree with each other
// and with a naive reference join.
func TestMatchAlgorithmsAgreeRandom(t *testing.T) {
	left := make([][2]int64, 300)
	right := make([][2]int64, 200)
	for i := range left {
		left[i] = [2]int64{int64(i * 7 % 40), int64(i)}
	}
	for i := range right {
		right[i] = [2]int64{int64(i * 11 % 40), int64(1000 + i)}
	}
	for _, op := range []MatchOp{MatchJoin, MatchSemi, MatchAnti, MatchLeftOuter, MatchRightOuter, MatchFullOuter} {
		h := runMatch(t, "hash", op, left, right, k0, k0)
		m := runMatch(t, "merge", op, left, right, k0, k0)
		if !rowsEqual(h, m) {
			t.Errorf("%v: hash (%d rows) and merge (%d rows) disagree", op, len(h), len(m))
		}
	}
	// Reference check for plain join cardinality.
	counts := map[int64][2]int{}
	for _, l := range left {
		c := counts[l[0]]
		c[0]++
		counts[l[0]] = c
	}
	for _, r := range right {
		c := counts[r[0]]
		c[1]++
		counts[r[0]] = c
	}
	want := 0
	for _, c := range counts {
		want += c[0] * c[1]
	}
	if got := len(runMatch(t, "hash", MatchJoin, left, right, k0, k0)); got != want {
		t.Errorf("join cardinality = %d, want %d", got, want)
	}
}

func TestMatchOpString(t *testing.T) {
	if MatchJoin.String() != "join" || MatchAntiDifference.String() != "antidifference" {
		t.Fatal("MatchOp names broken")
	}
}

// TestHashMatchReopen drains each operation with a trailing right-only
// class twice through one HashMatch: the second run, after Close and a
// new Open, emits the unmatched build records again.
func TestHashMatchReopen(t *testing.T) {
	left := [][2]int64{{1, 10}, {2, 20}, {2, 21}}
	right := [][2]int64{{2, 200}, {3, 300}, {4, 400}, {4, 401}}
	for _, op := range []MatchOp{MatchRightOuter, MatchUnion, MatchAntiDifference} {
		env := newTestEnv(t, 64)
		m, err := NewHashMatch(env.Env, op, scanOf(t, env.makePairs(t, "l", left)), scanOf(t, env.makePairs(t, "r", right)), record.Key{0}, record.Key{0})
		if err != nil {
			t.Fatal(err)
		}
		first, err := Drain(m, 7)
		if err != nil {
			t.Fatal(err)
		}
		if again, err := Drain(m, 7); err != nil || again != first {
			t.Fatalf("%v: %d records, then %d (%v) after a re-open", op, first, again, err)
		}
		env.checkNoPinLeak(t)
	}
}

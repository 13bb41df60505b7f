package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/record"
	"repro/internal/storage/buffer"
	"repro/internal/storage/device"
)

func env(t testing.TB, frames int) (*buffer.Pool, record.DeviceID) {
	t.Helper()
	reg := device.NewRegistry()
	id := reg.NextID()
	if err := reg.Mount(device.NewMem(id)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.CloseAll() })
	return buffer.NewPool(reg, frames, buffer.TwoLevel), id
}

func ridFor(i int) record.RID {
	return record.RID{PageID: record.PageID{Dev: 1, Page: uint32(i/100 + 1)}, Slot: uint16(i % 100)}
}

func intKey(i int64) []byte { return EncodeKey(record.Int(i)) }

func TestEncodeKeyOrderPreserving(t *testing.T) {
	ints := []int64{-1 << 62, -100, -1, 0, 1, 7, 1 << 40}
	for i := 1; i < len(ints); i++ {
		a, b := EncodeKey(record.Int(ints[i-1])), EncodeKey(record.Int(ints[i]))
		if bytes.Compare(a, b) >= 0 {
			t.Errorf("int order broken: %d !< %d", ints[i-1], ints[i])
		}
	}
	floats := []float64{-1e308, -1, -0.5, 0, 0.5, 1, 1e308}
	for i := 1; i < len(floats); i++ {
		a, b := EncodeKey(record.Float(floats[i-1])), EncodeKey(record.Float(floats[i]))
		if bytes.Compare(a, b) >= 0 {
			t.Errorf("float order broken: %g !< %g", floats[i-1], floats[i])
		}
	}
	strs := []string{"", "a", "a\x00", "a\x00b", "ab", "b"}
	for i := 1; i < len(strs); i++ {
		a, b := EncodeKey(record.Str(strs[i-1])), EncodeKey(record.Str(strs[i]))
		if bytes.Compare(a, b) >= 0 {
			t.Errorf("string order broken: %q !< %q", strs[i-1], strs[i])
		}
	}
	// Multi-field: ("a","b") < ("ab",""): first field decides.
	a := EncodeKey(record.Str("a"), record.Str("b"))
	b := EncodeKey(record.Str("ab"), record.Str(""))
	if bytes.Compare(a, b) >= 0 {
		t.Error(`("a","b") !< ("ab","")`)
	}
	// Bool and mixed tuples.
	if bytes.Compare(EncodeKey(record.Bool(false)), EncodeKey(record.Bool(true))) >= 0 {
		t.Error("bool order broken")
	}
}

func TestQuickEncodeKeyOrder(t *testing.T) {
	prop := func(a, b int64, s1, s2 string) bool {
		ka := EncodeKey(record.Int(a), record.Str(s1))
		kb := EncodeKey(record.Int(b), record.Str(s2))
		want := 0
		switch {
		case a < b:
			want = -1
		case a > b:
			want = 1
		default:
			want = bytes.Compare([]byte(s1), []byte(s2))
			if want > 0 {
				want = 1
			} else if want < 0 {
				want = -1
			}
		}
		got := bytes.Compare(ka, kb)
		if got > 0 {
			got = 1
		} else if got < 0 {
			got = -1
		}
		return got == want
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeRecordKey(t *testing.T) {
	s := record.MustSchema(record.Field{Name: "a", Type: record.TInt}, record.Field{Name: "b", Type: record.TString})
	data := s.MustEncode(record.Int(5), record.Str("x"))
	k, err := EncodeRecordKey(s, data, record.Key{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(k, EncodeKey(record.Int(5), record.Str("x"))) {
		t.Fatal("EncodeRecordKey differs from EncodeKey")
	}
}

func TestInsertLookupSmall(t *testing.T) {
	pool, dev := env(t, 64)
	tree, err := Create(pool, dev)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := tree.Insert(intKey(int64(i)), ridFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tree.Len() != 100 {
		t.Fatalf("Len = %d", tree.Len())
	}
	for i := 0; i < 100; i++ {
		rids, err := tree.Lookup(intKey(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if len(rids) != 1 || rids[0] != ridFor(i) {
			t.Fatalf("Lookup(%d) = %v", i, rids)
		}
	}
	if rids, _ := tree.Lookup(intKey(1000)); len(rids) != 0 {
		t.Fatalf("Lookup(absent) = %v", rids)
	}
	if pool.Stats().CurrentlyFixedHint != 0 {
		t.Fatal("pin leak")
	}
}

func TestInsertManySplitsAndScan(t *testing.T) {
	pool, dev := env(t, 256)
	tree, _ := Create(pool, dev)
	const n = 20000
	perm := rand.New(rand.NewSource(42)).Perm(n)
	for _, i := range perm {
		if err := tree.Insert(intKey(int64(i)), ridFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tree.Height() < 2 {
		t.Fatalf("height = %d, expected splits", tree.Height())
	}
	c, err := tree.Scan(nil, nil, true, true)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	count := 0
	var prev []byte
	for {
		k, rid, ok, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if prev != nil && bytes.Compare(prev, k) > 0 {
			t.Fatal("scan out of order")
		}
		if rid != ridFor(count) {
			t.Fatalf("entry %d: rid %v, want %v", count, rid, ridFor(count))
		}
		prev = k
		count++
	}
	if count != n {
		t.Fatalf("scanned %d entries, want %d", count, n)
	}
	if pool.Stats().CurrentlyFixedHint != 0 {
		t.Fatal("pin leak after scan")
	}
}

func TestRangeScanBounds(t *testing.T) {
	pool, dev := env(t, 128)
	tree, _ := Create(pool, dev)
	for i := 0; i < 1000; i++ {
		tree.Insert(intKey(int64(i)), ridFor(i))
	}
	cases := []struct {
		lo, hi       int64
		incLo, incHi bool
		want         int
	}{
		{100, 199, true, true, 100},
		{100, 199, false, true, 99},
		{100, 199, true, false, 99},
		{100, 199, false, false, 98},
		{0, 999, true, true, 1000},
		{500, 500, true, true, 1},
		{500, 500, false, true, 0},
		{2000, 3000, true, true, 0},
	}
	for _, tc := range cases {
		c, err := tree.Scan(intKey(tc.lo), intKey(tc.hi), tc.incLo, tc.incHi)
		if err != nil {
			t.Fatal(err)
		}
		count := 0
		for {
			_, _, ok, err := c.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			count++
		}
		c.Close()
		if count != tc.want {
			t.Errorf("scan[%d,%d] inc(%v,%v) = %d entries, want %d",
				tc.lo, tc.hi, tc.incLo, tc.incHi, count, tc.want)
		}
	}
	if pool.Stats().CurrentlyFixedHint != 0 {
		t.Fatal("pin leak after range scans")
	}
}

func TestDuplicateKeys(t *testing.T) {
	pool, dev := env(t, 256)
	tree, _ := Create(pool, dev)
	// 500 duplicates of one key, mixed with others around it.
	for i := 0; i < 500; i++ {
		if err := tree.Insert(intKey(7), ridFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		tree.Insert(intKey(6), ridFor(1000+i))
		tree.Insert(intKey(8), ridFor(2000+i))
	}
	rids, err := tree.Lookup(intKey(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != 500 {
		t.Fatalf("Lookup(dup) = %d rids, want 500", len(rids))
	}
	// Exact duplicate (key, rid) is rejected.
	if err := tree.Insert(intKey(7), ridFor(3)); err == nil {
		t.Fatal("duplicate (key,rid) accepted")
	}
	if pool.Stats().CurrentlyFixedHint != 0 {
		t.Fatal("pin leak")
	}
}

func TestStringKeys(t *testing.T) {
	pool, dev := env(t, 128)
	tree, _ := Create(pool, dev)
	words := []string{"volcano", "exchange", "iterator", "buffer", "device", "gamma", "wisconsin", ""}
	for i, w := range words {
		if err := tree.Insert(EncodeKey(record.Str(w)), ridFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	sorted := append([]string(nil), words...)
	sort.Strings(sorted)
	c, _ := tree.Scan(nil, nil, true, true)
	defer c.Close()
	for _, w := range sorted {
		k, _, ok, err := c.Next()
		if err != nil || !ok {
			t.Fatalf("scan ended early: %v", err)
		}
		if !bytes.Equal(k, EncodeKey(record.Str(w))) {
			t.Fatalf("got %x, want key of %q", k, w)
		}
	}
	_ = pool
}

func TestKeyTooLarge(t *testing.T) {
	pool, dev := env(t, 32)
	tree, _ := Create(pool, dev)
	if err := tree.Insert(make([]byte, MaxKeyLen+1), ridFor(0)); err == nil {
		t.Fatal("oversized key accepted")
	}
	if err := tree.Insert(make([]byte, MaxKeyLen), ridFor(0)); err != nil {
		t.Fatalf("max-size key rejected: %v", err)
	}
	// Enough large keys to force splits at max key size.
	for i := 1; i < 40; i++ {
		k := make([]byte, MaxKeyLen)
		k[0] = byte(i)
		if err := tree.Insert(k, ridFor(i)); err != nil {
			t.Fatalf("large key %d: %v", i, err)
		}
	}
	if pool.Stats().CurrentlyFixedHint != 0 {
		t.Fatal("pin leak")
	}
}

// Property: a tree built from any permutation scans back sorted and
// complete.
func TestQuickTreeScanComplete(t *testing.T) {
	prop := func(seed int64) bool {
		pool, dev := env(t, 256)
		tree, _ := Create(pool, dev)
		n := 500
		perm := rand.New(rand.NewSource(seed)).Perm(n)
		for _, i := range perm {
			if err := tree.Insert(intKey(int64(i)), ridFor(i)); err != nil {
				return false
			}
		}
		c, err := tree.Scan(nil, nil, true, true)
		if err != nil {
			return false
		}
		defer c.Close()
		for i := 0; i < n; i++ {
			k, rid, ok, err := c.Next()
			if err != nil || !ok || !bytes.Equal(k, intKey(int64(i))) || rid != ridFor(i) {
				return false
			}
		}
		_, _, ok, _ := c.Next()
		return !ok && pool.Stats().CurrentlyFixedHint == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInsert(b *testing.B) {
	pool, dev := env(b, 1024)
	tree, _ := Create(pool, dev)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tree.Insert(intKey(int64(i)), ridFor(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLookup(b *testing.B) {
	pool, dev := env(b, 1024)
	tree, _ := Create(pool, dev)
	const n = 100000
	for i := 0; i < n; i++ {
		tree.Insert(intKey(int64(i)), ridFor(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.Lookup(intKey(int64(i % n))); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleTree() {
	reg := device.NewRegistry()
	id := reg.NextID()
	reg.Mount(device.NewMem(id))
	pool := buffer.NewPool(reg, 64, buffer.TwoLevel)
	tree, _ := Create(pool, id)
	tree.Insert(EncodeKey(record.Int(1)), record.RID{PageID: record.PageID{Dev: 1, Page: 1}, Slot: 0})
	rids, _ := tree.Lookup(EncodeKey(record.Int(1)))
	fmt.Println(len(rids))
	// Output: 1
}

package btree

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestOpenReattachesTree verifies the Open constructor used by durable
// catalogs.
func TestOpenReattachesTree(t *testing.T) {
	pool, dev := env(t, 256)
	tree, _ := Create(pool, dev)
	for i := 0; i < 2000; i++ {
		tree.Insert(intKey(int64(i)), ridFor(i))
	}
	reopened := Open(pool, dev, tree.RootPage(), tree.Height(), tree.Len())
	if reopened.Len() != 2000 || reopened.Height() != tree.Height() {
		t.Fatal("metadata lost")
	}
	rids, err := reopened.Lookup(intKey(777))
	if err != nil || len(rids) != 1 || rids[0] != ridFor(777) {
		t.Fatalf("Lookup through reopened tree: %v %v", rids, err)
	}
	// Writes through the reopened handle work too.
	if err := reopened.Insert(intKey(5000), ridFor(5000)); err != nil {
		t.Fatal(err)
	}
	if rids, _ := reopened.Lookup(intKey(5000)); len(rids) != 1 {
		t.Fatal("insert through reopened tree lost")
	}
}

// Property: for random int sets, range scans agree with a filtered
// reference.
func TestQuickRangeScanAgainstReference(t *testing.T) {
	prop := func(seed int64, loRaw, hiRaw uint16) bool {
		pool, dev := env(t, 512)
		tree, _ := Create(pool, dev)
		rng := rand.New(rand.NewSource(seed))
		present := map[int64]bool{}
		for i := 0; i < 800; i++ {
			k := int64(rng.Intn(1 << 14))
			if present[k] {
				continue
			}
			present[k] = true
			if err := tree.Insert(intKey(k), ridFor(int(k%60000))); err != nil {
				return false
			}
		}
		lo, hi := int64(loRaw), int64(hiRaw)
		if lo > hi {
			lo, hi = hi, lo
		}
		want := 0
		for k := range present {
			if k >= lo && k <= hi {
				want++
			}
		}
		c, err := tree.Scan(intKey(lo), intKey(hi), true, true)
		if err != nil {
			return false
		}
		defer c.Close()
		got := 0
		var prev []byte
		for {
			k, _, ok, err := c.Next()
			if err != nil {
				return false
			}
			if !ok {
				break
			}
			if prev != nil && bytes.Compare(prev, k) > 0 {
				return false
			}
			prev = k
			got++
		}
		return got == want && pool.Stats().CurrentlyFixedHint == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

package btree

import (
	"bytes"
	"fmt"
	"sync"

	"repro/internal/record"
	"repro/internal/storage/buffer"
)

// Tree is a B+-tree mapping opaque order-preserving keys to RIDs.
// Duplicate keys are allowed: entries are unique on (key, RID).
type Tree struct {
	pool *buffer.Pool
	dev  record.DeviceID

	// write serialises structural modifications (single-writer; Volcano
	// has no record-level concurrency control).
	write  sync.Mutex
	root   uint32
	height int
	count  int
}

// Open reattaches to an existing tree from persisted metadata (root page,
// height, entry count) — the counterpart of a durable catalog entry.
func Open(pool *buffer.Pool, dev record.DeviceID, root uint32, height, count int) *Tree {
	return &Tree{pool: pool, dev: dev, root: root, height: height, count: count}
}

// Create allocates an empty tree (a single empty leaf as root) on the
// given device.
func Create(pool *buffer.Pool, dev record.DeviceID) (*Tree, error) {
	fr, pid, err := pool.FixNew(dev)
	if err != nil {
		return nil, fmt.Errorf("btree: create: %w", err)
	}
	node{fr.Data()}.init(kindLeaf)
	pool.Unfix(fr, true)
	return &Tree{pool: pool, dev: dev, root: pid.Page, height: 1}, nil
}

// Height returns the tree height in levels (1 = root is a leaf).
func (t *Tree) Height() int { return t.height }

// Len returns the number of entries.
func (t *Tree) Len() int { return t.count }

// RootPage returns the current root page (for tests).
func (t *Tree) RootPage() uint32 { return t.root }

func (t *Tree) pid(page uint32) record.PageID {
	return record.PageID{Dev: t.dev, Page: page}
}

// dupExists reports whether (key, rid) already exists, starting from entry
// idx of the pinned leaf n and walking right while keys match. The caller
// keeps n pinned; any further leaves are pinned and released here.
func (t *Tree) dupExists(n node, idx int, key []byte, rid record.RID) (bool, error) {
	var owned *buffer.Frame // pin we hold on the current leaf (nil = caller's)
	release := func() {
		if owned != nil {
			t.pool.Unfix(owned, false)
			owned = nil
		}
	}
	for {
		for ; idx < n.nkeys(); idx++ {
			if !bytes.Equal(n.key(idx), key) {
				release()
				return false, nil
			}
			if n.rid(idx) == rid {
				release()
				return true, nil
			}
		}
		next := n.next()
		release()
		if next == 0 {
			return false, nil
		}
		fr, err := t.fix(next)
		if err != nil {
			return false, err
		}
		owned, n, idx = fr, node{fr.Data()}, 0
	}
}

// descend returns the child of internal node n to follow for key: the
// rightmost child whose separator is strictly below the key.
func (t *Tree) descend(n node, key []byte) uint32 {
	i, _ := n.search(key) // first separator >= key
	if i == 0 {
		return n.left()
	}
	return n.child(i - 1)
}

// Insert adds (key, rid). Inserting an exact duplicate of an existing
// (key, rid) pair is an error.
func (t *Tree) Insert(key []byte, rid record.RID) error {
	if len(key) > MaxKeyLen {
		return fmt.Errorf("btree: key of %d bytes exceeds max %d", len(key), MaxKeyLen)
	}
	t.write.Lock()
	defer t.write.Unlock()
	sepKey, newChild, err := t.insertInto(t.root, t.height, key, rid)
	if err != nil {
		return err
	}
	if newChild != 0 {
		// Root split: grow the tree by one level.
		splits.Add(1)
		fr, pid, err := t.pool.FixNew(t.dev)
		if err != nil {
			return fmt.Errorf("btree: root split: %w", err)
		}
		n := node{fr.Data()}
		n.init(kindInternal)
		n.setLeft(t.root)
		if err := n.insertAt(0, internalPayload(sepKey, newChild)); err != nil {
			t.pool.Unfix(fr, false)
			return err
		}
		t.pool.Unfix(fr, true)
		t.root = pid.Page
		t.height++
	}
	t.count++
	return nil
}

// insertInto descends to the leaf, inserts, and propagates splits upward.
// On split it returns the separator key and new right sibling page.
func (t *Tree) insertInto(page uint32, level int, key []byte, rid record.RID) (sep []byte, newPage uint32, err error) {
	fr, err := t.fix(page)
	if err != nil {
		return nil, 0, err
	}
	n := node{fr.Data()}

	if level == 1 {
		if !n.isLeaf() {
			t.pool.Unfix(fr, false)
			return nil, 0, fmt.Errorf("btree: page %d: expected leaf", page)
		}
		i, _ := n.search(key)
		// Reject exact (key, rid) duplicates; equal keys may span leaves,
		// so walk the chain while keys still match.
		dup, err := t.dupExists(n, i, key, rid)
		if err != nil {
			t.pool.Unfix(fr, false)
			return nil, 0, err
		}
		if dup {
			t.pool.Unfix(fr, false)
			return nil, 0, fmt.Errorf("btree: duplicate entry (%x, %s)", key, rid)
		}
		if err := n.insertAt(i, leafPayload(key, rid)); err == nil {
			t.pool.Unfix(fr, true)
			return nil, 0, nil
		}
		sep, newPage, err = t.splitLeaf(fr, n, key, rid)
		return sep, newPage, err
	}

	// Internal node: descend into the rightmost child whose separator is
	// strictly below the key. On equality we go left, because duplicates
	// of a separator key may live on both sides; leaf-chain traversal
	// picks up the rest.
	child := t.descend(n, key)
	t.pool.Unfix(fr, false)

	csep, cpage, err := t.insertInto(child, level-1, key, rid)
	if err != nil || cpage == 0 {
		return nil, 0, err
	}

	// Child split: insert the separator immediately after the child that
	// split. Position by child pointer, not by key search — with duplicate
	// keys several separators can be equal, and key search could place the
	// new sibling out of chain order.
	fr, err = t.fix(page)
	if err != nil {
		return nil, 0, err
	}
	n = node{fr.Data()}
	j := -1
	if n.left() == child {
		j = 0
	} else {
		for e := 0; e < n.nkeys(); e++ {
			if n.child(e) == child {
				j = e + 1
				break
			}
		}
	}
	if j < 0 {
		t.pool.Unfix(fr, false)
		return nil, 0, fmt.Errorf("btree: page %d: split child %d not found", page, child)
	}
	if err := n.insertAt(j, internalPayload(csep, cpage)); err == nil {
		t.pool.Unfix(fr, true)
		return nil, 0, nil
	}
	return t.splitInternal(fr, n, csep, cpage, j)
}

// splitLeaf splits the full leaf held by fr and inserts (key, rid) into
// the proper half. Returns the separator (first key of the right node).
func (t *Tree) splitLeaf(fr *buffer.Frame, n node, key []byte, rid record.RID) ([]byte, uint32, error) {
	splits.Add(1)
	rfr, rpid, err := t.pool.FixNew(t.dev)
	if err != nil {
		t.pool.Unfix(fr, false)
		return nil, 0, err
	}
	rn := node{rfr.Data()}
	rn.init(kindLeaf)

	nk := n.nkeys()
	mid := nk / 2
	// Move entries [mid, nk) to the right node.
	for i := mid; i < nk; i++ {
		if err := rn.insertAt(i-mid, append([]byte(nil), n.payload(i)...)); err != nil {
			t.pool.Unfix(rfr, false)
			t.pool.Unfix(fr, true)
			return nil, 0, err
		}
	}
	n.setNkeys(mid)
	n.compact()
	rn.setNext(n.next())
	// Leaf chain: left -> right (the new page is on the same device).
	n.setNext(rpid.Page)

	sep := append([]byte(nil), rn.key(0)...)
	// Insert the new entry into the correct half.
	tn := n
	if bytes.Compare(key, sep) >= 0 {
		tn = rn
	}
	i, _ := tn.search(key)
	err = tn.insertAt(i, leafPayload(key, rid))
	t.pool.Unfix(fr, true)
	t.pool.Unfix(rfr, true)
	if err != nil {
		return nil, 0, fmt.Errorf("btree: split leaf: %w", err)
	}
	return sep, rpid.Page, nil
}

// splitInternal splits the full internal node held by fr and inserts
// (sep, child) at entry index j (positional, to preserve child/chain
// order under duplicate separators). The middle key moves up.
func (t *Tree) splitInternal(fr *buffer.Frame, n node, sep []byte, child uint32, j int) ([]byte, uint32, error) {
	splits.Add(1)
	rfr, rpid, err := t.pool.FixNew(t.dev)
	if err != nil {
		t.pool.Unfix(fr, false)
		return nil, 0, err
	}
	rn := node{rfr.Data()}
	rn.init(kindInternal)

	nk := n.nkeys()
	mid := nk / 2
	up := append([]byte(nil), n.key(mid)...)
	rn.setLeft(n.child(mid))
	for i := mid + 1; i < nk; i++ {
		if err := rn.insertAt(i-mid-1, append([]byte(nil), n.payload(i)...)); err != nil {
			t.pool.Unfix(rfr, false)
			t.pool.Unfix(fr, true)
			return nil, 0, err
		}
	}
	n.setNkeys(mid)
	n.compact()

	// Insert the pending separator into the half its position falls in.
	if j <= mid {
		err = n.insertAt(j, internalPayload(sep, child))
	} else {
		err = rn.insertAt(j-mid-1, internalPayload(sep, child))
	}
	t.pool.Unfix(fr, true)
	t.pool.Unfix(rfr, true)
	if err != nil {
		return nil, 0, fmt.Errorf("btree: split internal: %w", err)
	}
	return up, rpid.Page, nil
}

// Lookup returns the RIDs of all entries with exactly the given key.
func (t *Tree) Lookup(key []byte) ([]record.RID, error) {
	c, err := t.Scan(key, key, true, true)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	var out []record.RID
	for {
		_, rid, ok, err := c.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, rid)
	}
}

package btree

import (
	"bytes"
	"fmt"

	"repro/internal/record"
	"repro/internal/storage/buffer"
)

// Cursor iterates (key, RID) pairs in ascending key order over a range.
// It holds one pinned leaf at a time.
type Cursor struct {
	t     *Tree
	frame *buffer.Frame
	n     node
	idx   int
	hi    []byte // nil = unbounded
	incHi bool
	done  bool
}

// Scan opens a cursor over keys in [lo, hi] with configurable endpoint
// inclusivity. lo may be nil for "from the beginning", hi nil for "to the
// end".
func (t *Tree) Scan(lo, hi []byte, incLo, incHi bool) (*Cursor, error) {
	c := &Cursor{t: t, hi: hi, incHi: incHi}
	// Descend to the leftmost candidate leaf.
	page := t.root
	for level := t.height; level > 1; level-- {
		fr, err := t.fix(page)
		if err != nil {
			return nil, err
		}
		n := node{fr.Data()}
		if lo == nil {
			page = n.left()
		} else {
			page = t.descend(n, lo)
		}
		t.pool.Unfix(fr, false)
	}
	fr, err := t.fix(page)
	if err != nil {
		return nil, err
	}
	c.frame, c.n = fr, node{fr.Data()}
	if !c.n.isLeaf() {
		c.Close()
		return nil, fmt.Errorf("btree: page %d: expected leaf", page)
	}
	if lo == nil {
		c.idx = 0
	} else {
		c.idx, _ = c.n.search(lo)
		if !incLo {
			for c.idx < c.n.nkeys() && bytes.Equal(c.n.key(c.idx), lo) {
				c.idx++
			}
		}
	}
	return c, nil
}

// Next returns the next (key, RID) pair. The key slice is a copy and safe
// to retain. ok=false signals the end of the range.
func (c *Cursor) Next() (key []byte, rid record.RID, ok bool, err error) {
	for {
		if c.done {
			return nil, record.RID{}, false, nil
		}
		if c.idx < c.n.nkeys() {
			k := c.n.key(c.idx)
			if c.hi != nil {
				cmp := bytes.Compare(k, c.hi)
				if cmp > 0 || (cmp == 0 && !c.incHi) {
					c.Close()
					return nil, record.RID{}, false, nil
				}
			}
			rid := c.n.rid(c.idx)
			c.idx++
			return append([]byte(nil), k...), rid, true, nil
		}
		// Advance to the next leaf (skipping empty ones).
		next := c.n.next()
		c.t.pool.Unfix(c.frame, false)
		c.frame = nil
		if next == 0 {
			c.done = true
			return nil, record.RID{}, false, nil
		}
		fr, err := c.t.fix(next)
		if err != nil {
			c.done = true
			return nil, record.RID{}, false, err
		}
		c.frame, c.n, c.idx = fr, node{fr.Data()}, 0
	}
}

// Close releases the cursor's pin. Safe to call repeatedly.
func (c *Cursor) Close() {
	if c.frame != nil {
		c.t.pool.Unfix(c.frame, false)
		c.frame = nil
	}
	c.done = true
}

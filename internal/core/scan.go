package core

import (
	"fmt"

	"repro/internal/record"
	"repro/internal/storage/btree"
	"repro/internal/storage/file"
)

// FileScan reads a stored (or virtual) file in storage order.
type FileScan struct {
	f         *file.File
	schema    *record.Schema
	readAhead bool
	scan      *file.Scan
}

// NewFileScan builds a scan over f. If schema is nil the schema recorded
// in the VTOC is used.
func NewFileScan(f *file.File, schema *record.Schema, readAhead bool) (*FileScan, error) {
	if schema == nil {
		schema = f.Schema()
	}
	if schema == nil {
		return nil, errState("filescan", fmt.Sprintf("file %q has no schema", f.Name()))
	}
	return &FileScan{f: f, schema: schema, readAhead: readAhead}, nil
}

// Schema implements Iterator.
func (s *FileScan) Schema() *record.Schema { return s.schema }

// Open implements Iterator.
func (s *FileScan) Open() error {
	if s.scan != nil {
		return errState("filescan", "already open")
	}
	s.scan = s.f.NewScan(s.readAhead)
	return nil
}

// NextBatch implements Iterator: the batch fills by page runs of the
// storage scan, each pinned with one Pool.Pin.
func (s *FileScan) NextBatch(b *Batch) error {
	if s.scan == nil {
		return errState("filescan", "next before open")
	}
	b.Reset()
	for !b.Full() {
		n := b.Len()
		run, err := s.scan.NextRun(b.own, b.target-n)
		b.own, b.recs = run, run
		if err != nil {
			b.Release()
			return err
		}
		if len(run) == n {
			break
		}
	}
	return nil
}

// Close implements Iterator.
func (s *FileScan) Close() error {
	if s.scan == nil {
		return errState("filescan", "close before open")
	}
	s.scan.Close()
	s.scan = nil
	return nil
}

// IndexScan reads records through a B+-tree in key order, optionally
// restricted to a range. Each index entry is resolved to its record by
// fetching (and pinning) the page it lives on.
type IndexScan struct {
	tree         *btree.Tree
	f            *file.File
	schema       *record.Schema
	lo, hi       []byte
	incLo, incHi bool

	cur *btree.Cursor
}

// NewIndexScan builds an index scan. lo/hi are encoded keys (btree.EncodeKey);
// nil means unbounded.
func NewIndexScan(tree *btree.Tree, f *file.File, schema *record.Schema, lo, hi []byte, incLo, incHi bool) (*IndexScan, error) {
	if schema == nil {
		schema = f.Schema()
	}
	if schema == nil {
		return nil, errState("indexscan", fmt.Sprintf("file %q has no schema", f.Name()))
	}
	return &IndexScan{tree: tree, f: f, schema: schema, lo: lo, hi: hi, incLo: incLo, incHi: incHi}, nil
}

// Schema implements Iterator.
func (s *IndexScan) Schema() *record.Schema { return s.schema }

// Open implements Iterator.
func (s *IndexScan) Open() error {
	if s.cur != nil {
		return errState("indexscan", "already open")
	}
	cur, err := s.tree.Scan(s.lo, s.hi, s.incLo, s.incHi)
	if err != nil {
		return err
	}
	s.cur = cur
	return nil
}

// NextBatch implements Iterator: one call walks the B-tree cursor and
// resolves a whole run of RIDs.
func (s *IndexScan) NextBatch(b *Batch) error {
	if s.cur == nil {
		return errState("indexscan", "next before open")
	}
	return fill(b, s.next)
}

// next resolves the cursor's next RID to its record.
func (s *IndexScan) next() (Rec, bool, error) {
	_, rid, ok, err := s.cur.Next()
	if err != nil || !ok {
		return Rec{}, false, err
	}
	r, err := s.f.Fetch(rid)
	if err != nil {
		return Rec{}, false, fmt.Errorf("core: indexscan: %w", err)
	}
	return r, true, nil
}

// Close implements Iterator.
func (s *IndexScan) Close() error {
	if s.cur == nil {
		return errState("indexscan", "close before open")
	}
	s.cur.Close()
	s.cur = nil
	return nil
}

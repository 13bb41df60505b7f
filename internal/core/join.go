package core

import (
	"repro/internal/expr"
	"repro/internal/record"
	"repro/internal/storage/file"
)

// NestedLoops is the nested-loops join: for every left record, the right
// input is rescanned and an arbitrary join predicate evaluated over the
// combined record. The right input is materialised once into a temp file
// so it can be rescanned cheaply regardless of what produced it.
//
// A nil predicate yields the Cartesian product.
type NestedLoops struct {
	env    *Env
	left   Iterator
	right  Iterator
	pred   expr.Predicate // over the combined schema; nil = always true
	schema *record.Schema

	comb       combiner
	inner      *file.File
	lsrc       *Cursor
	lrec       Rec
	lok        bool
	scan       *file.Scan
	open       bool
	openFailed bool // Open ran and failed: next Close is a no-op
}

// NewNestedLoops builds the operator. predSrc is an expression over the
// concatenated schema (empty = Cartesian product).
func NewNestedLoops(env *Env, left, right Iterator, predSrc string, mode expr.Mode) (*NestedLoops, error) {
	schema := left.Schema().Concat(right.Schema())
	var pred expr.Predicate
	if predSrc != "" {
		p, err := expr.ParsePredicate(predSrc, schema, mode)
		if err != nil {
			return nil, err
		}
		pred = p
	}
	return &NestedLoops{
		env: env, left: left, right: right, pred: pred, schema: schema,
		comb: newCombiner(left.Schema(), right.Schema()),
	}, nil
}

// NewCartesianProduct builds the Cartesian product of the inputs.
func NewCartesianProduct(env *Env, left, right Iterator) (*NestedLoops, error) {
	return NewNestedLoops(env, left, right, "", expr.Compiled)
}

// Schema implements Iterator.
func (n *NestedLoops) Schema() *record.Schema { return n.schema }

// Open implements Iterator: materialises the inner (right) input.
func (n *NestedLoops) Open() error {
	if n.open {
		return errState("nestedloops", "already open")
	}
	err := n.openImpl()
	n.openFailed = err != nil
	return err
}

func (n *NestedLoops) openImpl() error {
	w, err := n.env.NewResultWriter("nljoin", n.schema)
	if err != nil {
		return err
	}
	inner, err := n.env.CreateTemp("nlinner", n.right.Schema())
	if err != nil {
		_ = w.Dispose()
		return err
	}
	fail := func(err error) error {
		_ = w.Dispose()
		_ = n.env.DropTemp(inner)
		return err
	}
	if err := n.right.Open(); err != nil {
		return fail(err)
	}
	src := NewCursor(n.right, n.env.BatchSize())
	for {
		r, ok, err := src.Pull()
		if err == nil && ok {
			_, err = inner.Insert(r.Data)
			r.Unfix()
		}
		if err != nil {
			src.Release()
			_ = n.right.Close()
			return fail(err)
		}
		if !ok {
			break
		}
	}
	if err := n.right.Close(); err != nil {
		return fail(err)
	}
	if err := n.left.Open(); err != nil {
		return fail(err)
	}
	n.comb.w, n.inner = w, inner
	n.lsrc = NewCursor(n.left, n.env.BatchSize())
	n.lok = false
	n.open = true
	return nil
}

// NextBatch implements Iterator.
func (n *NestedLoops) NextBatch(b *Batch) error {
	if !n.open {
		return errState("nestedloops", "next before open")
	}
	return fill(b, n.next)
}

// next emits the next qualifying combination of the current outer record
// with the inner file, advancing the outer input as the inner scan ends.
func (n *NestedLoops) next() (Rec, bool, error) {
	for {
		if !n.lok {
			var err error
			n.lrec, n.lok, err = n.lsrc.Pull()
			if err != nil || !n.lok {
				return Rec{}, false, err
			}
			n.scan = n.inner.NewScan(false)
		}
		r, ok, err := n.scan.Next()
		if err != nil {
			return Rec{}, false, err
		}
		if !ok {
			// Inner exhausted: advance outer.
			n.scan.Close()
			n.scan = nil
			n.lrec.Unfix()
			n.lok = false
			continue
		}
		out, keep, err := n.combine(n.lrec.Data, r.Data)
		r.Unfix()
		if err != nil {
			return Rec{}, false, err
		}
		if keep {
			return out, true, nil
		}
	}
}

func (n *NestedLoops) combine(l, r []byte) (Rec, bool, error) {
	if n.pred != nil {
		return n.comb.combineIf(l, r, n.pred)
	}
	out, err := n.comb.combine(l, r)
	return out, err == nil, err
}

// Close implements Iterator.
func (n *NestedLoops) Close() error {
	if n.openFailed {
		// A failed Open already unwound this operator's state; the
		// standard drain path closes unconditionally, and a state error
		// here would mask the root cause.
		n.openFailed = false
		return nil
	}
	if !n.open {
		return errState("nestedloops", "close before open")
	}
	n.open = false
	if n.scan != nil {
		n.scan.Close()
		n.scan = nil
	}
	if n.lok {
		n.lrec.Unfix()
		n.lok = false
	}
	n.lsrc.Release()
	err := n.left.Close()
	if derr := n.env.DropTemp(n.inner); err == nil {
		err = derr
	}
	n.inner = nil
	if derr := n.comb.dispose(); err == nil {
		err = derr
	}
	return err
}

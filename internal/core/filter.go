package core

import (
	"repro/internal/expr"
	"repro/internal/record"
	"repro/internal/storage/file"
)

// Filter passes through input records satisfying a predicate support
// function; rejected records are unfixed ("the operator can ... unfix it,
// e.g., when a predicate fails", paper §3) together by page run. Filter
// creates no new records, so qualifying records flow through with their
// pins.
type Filter struct {
	input Iterator
	pred  expr.Predicate
	open  bool

	// The input batch being filtered, the cursor into it, and the scratch
	// slices PredicateBatch evaluates over — one support-function sweep
	// per input batch. The input batch has the Env's batch size.
	// Rejects are collected and released by page run before the input
	// batch refills and before NextBatch returns.
	inb     *Batch
	inpos   int
	datas   [][]byte
	keep    []bool
	rejects []Rec
}

// NewFilter wraps input with the given predicate, pulling the input in
// batches of env's batch size.
func NewFilter(env *Env, input Iterator, pred expr.Predicate) *Filter {
	return &Filter{input: input, pred: pred, inb: NewBatch(env.BatchSize())}
}

// NewFilterExpr compiles src against the input schema in the given support
// function mode and wraps input.
func NewFilterExpr(env *Env, input Iterator, src string, mode expr.Mode) (*Filter, error) {
	pred, err := expr.ParsePredicate(src, input.Schema(), mode)
	if err != nil {
		return nil, err
	}
	return NewFilter(env, input, pred), nil
}

// Schema implements Iterator.
func (f *Filter) Schema() *record.Schema { return f.input.Schema() }

// Open implements Iterator.
func (f *Filter) Open() error {
	if f.open {
		return errState("filter", "already open")
	}
	if err := f.input.Open(); err != nil {
		return err
	}
	f.open = true
	return nil
}

// NextBatch implements Iterator: it pulls whole input batches, evaluates
// the predicate support function over each batch in one PredicateBatch
// sweep, and compacts the qualifying records into b. Rejects are unfixed
// with one UnfixN per page run (file.UnfixBatch), at the latest before
// the call returns.
func (f *Filter) NextBatch(b *Batch) error {
	if !f.open {
		return errState("filter", "next before open")
	}
	b.Reset()
	for {
		for f.inpos < f.inb.Len() {
			if b.Full() {
				f.releaseRejects()
				return nil
			}
			r := f.inb.Recs()[f.inpos]
			if f.keep[f.inpos] {
				b.Append(r)
			} else {
				f.rejects = append(f.rejects, r)
			}
			f.inpos++
		}
		f.releaseRejects()
		if err := f.input.NextBatch(f.inb); err != nil {
			f.inpos = 0
			b.Release()
			return err
		}
		f.inpos = 0
		n := f.inb.Len()
		if n == 0 {
			return nil // end of stream; b may carry a final partial batch
		}
		f.datas = f.datas[:0]
		for _, r := range f.inb.Recs() {
			f.datas = append(f.datas, r.Data)
		}
		if cap(f.keep) < n {
			f.keep = make([]bool, n)
		}
		f.keep = f.keep[:n]
		if _, err := expr.PredicateBatch(f.pred, f.datas, f.keep); err != nil {
			f.inb.Release()
			b.Release()
			return err
		}
	}
}

// releaseRejects unfixes the collected rejects, one UnfixN per page run.
func (f *Filter) releaseRejects() {
	file.UnfixBatch(f.rejects)
	f.rejects = f.rejects[:0]
}

// Close implements Iterator.
func (f *Filter) Close() error {
	if !f.open {
		return errState("filter", "close before open")
	}
	f.open = false
	// Release input records judged but not yet served.
	file.UnfixBatch(f.inb.Recs()[f.inpos:])
	f.inb.Reset()
	f.inpos = 0
	return f.input.Close()
}

// Project computes new records from input records using projection support
// functions, materialising the output in the buffer via a virtual file
// (new records must be fixed before being passed on) and unfixing inputs.
type Project struct {
	env    *Env
	input  Iterator
	proj   expr.Projector
	schema *record.Schema
	w      *ResultWriter
	vals   []record.Value // the row being computed, reused across records
	src    *Cursor        // the input, read at the Env's batch size
}

// NewProject builds a projection from expressions with optional output
// names.
func NewProject(env *Env, input Iterator, exprs []expr.Expr, names []string, mode expr.Mode) (*Project, error) {
	proj, out, err := expr.NewProjector(exprs, names, input.Schema(), mode)
	if err != nil {
		return nil, err
	}
	return &Project{
		env: env, input: input, proj: proj, schema: out,
		vals: make([]record.Value, out.NumFields()),
	}, nil
}

// NewProjectExprs parses the given expression sources and builds a
// projection.
func NewProjectExprs(env *Env, input Iterator, srcs []string, names []string, mode expr.Mode) (*Project, error) {
	exprs := make([]expr.Expr, len(srcs))
	for i, s := range srcs {
		e, err := expr.Parse(s)
		if err != nil {
			return nil, err
		}
		exprs[i] = e
	}
	return NewProject(env, input, exprs, names, mode)
}

// Schema implements Iterator.
func (p *Project) Schema() *record.Schema { return p.schema }

// Open implements Iterator.
func (p *Project) Open() error {
	if p.w != nil {
		return errState("project", "already open")
	}
	w, err := p.env.NewResultWriter("project", p.schema)
	if err != nil {
		return err
	}
	if err := p.input.Open(); err != nil {
		_ = w.Dispose()
		return err
	}
	p.w = w
	p.src = NewCursor(p.input, p.env.BatchSize())
	return nil
}

// NextBatch implements Iterator: the projection materialises one output
// record per input record.
func (p *Project) NextBatch(b *Batch) error {
	if p.w == nil {
		return errState("project", "next before open")
	}
	return fill(b, p.next)
}

// next computes the output record of the next input record in place in
// the virtual file and releases the input, whose bytes the computed
// values may alias until then.
func (p *Project) next() (Rec, bool, error) {
	r, ok, err := p.src.Pull()
	if err != nil || !ok {
		return Rec{}, false, err
	}
	defer r.Unfix()
	if err := p.proj(r.Data, p.vals); err != nil {
		return Rec{}, false, err
	}
	out, err := p.w.Write(p.vals)
	return out, err == nil, err
}

// Close implements Iterator.
func (p *Project) Close() error {
	if p.w == nil {
		return errState("project", "close before open")
	}
	p.src.Release()
	err := p.input.Close()
	if derr := p.w.Dispose(); err == nil {
		err = derr
	}
	p.w = nil
	return err
}

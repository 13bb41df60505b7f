package core

import (
	"repro/internal/expr"
	"repro/internal/record"
	"repro/internal/storage/file"
)

// Filter passes through input records satisfying a predicate support
// function; rejected records are unfixed ("the operator can ... unfix it,
// e.g., when a predicate fails", paper §3) at once, or in batch mode
// together by page run. Filter creates no new records, so qualifying
// records flow through with their pins.
type Filter struct {
	input Iterator
	pred  expr.Predicate
	open  bool

	// Batch-mode state: the input batch being filtered, the cursor into
	// it, and the scratch slices PredicateBatch evaluates over — one
	// support-function sweep per input batch instead of one closure call
	// per Next. Rejects are collected and released by page run before the
	// input batch refills and before NextBatch returns.
	batch   int
	bin     BatchIterator
	inb     *Batch
	inpos   int
	datas   [][]byte
	keep    []bool
	rejects []Rec
}

// NewFilter wraps input with the given predicate.
func NewFilter(input Iterator, pred expr.Predicate) *Filter {
	return &Filter{input: input, pred: pred}
}

// NewFilterExpr compiles src against the input schema in the given support
// function mode and wraps input.
func NewFilterExpr(input Iterator, src string, mode expr.Mode) (*Filter, error) {
	pred, err := expr.ParsePredicate(src, input.Schema(), mode)
	if err != nil {
		return nil, err
	}
	return NewFilter(input, pred), nil
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

// Next implements Iterator.
func (f *Filter) Next() (Rec, bool, error) {
	if !f.open {
		return Rec{}, false, errState("filter", "next before open")
	}
	for {
		r, ok, err := f.input.Next()
		if err != nil || !ok {
			return Rec{}, false, err
		}
		keep, err := f.pred(r.Data)
		if err != nil {
			r.Unfix()
			return Rec{}, false, err
		}
		if keep {
			return r, true, nil
		}
		r.Unfix()
	}
}

// EnableBatch implements BatchConfigurable: NextBatch refills the input
// batch with pulls of the given size.
func (f *Filter) EnableBatch(size int) { f.batch = size }

// NextBatch implements BatchIterator natively: it pulls whole input
// batches, evaluates the predicate support function over each batch in
// one PredicateBatch sweep, and compacts the qualifying records into b.
// Rejects are unfixed with one UnfixN per page run (file.UnfixBatch), at
// the latest before the call returns.
func (f *Filter) NextBatch(b *Batch) error {
	if !f.open {
		return errState("filter", "next before open")
	}
	b.Reset()
	if f.bin == nil {
		f.bin = AsBatch(f.input)
		size := f.batch
		if size <= 0 {
			size = b.Target()
		}
		f.inb = NewBatch(size)
	}
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
		if err := f.bin.NextBatch(f.inb); err != nil {
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
	if f.inb != nil {
		// Release input records judged but not yet served.
		file.UnfixBatch(f.inb.Recs()[f.inpos:])
		f.inb.Reset()
		f.inpos = 0
	}
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

	batch int
	src   recSource
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
	return nil
}

// Next implements Iterator.
func (p *Project) Next() (Rec, bool, error) {
	if p.w == nil {
		return Rec{}, false, errState("project", "next before open")
	}
	r, ok, err := p.input.Next()
	if err != nil || !ok {
		return Rec{}, false, err
	}
	out, err := p.project(r)
	return out, err == nil, err
}

// project computes the output record of r in place in the virtual file
// and releases r, whose bytes the computed values may alias until then.
func (p *Project) project(r Rec) (Rec, error) {
	defer r.Unfix()
	if err := p.proj(r.Data, p.vals); err != nil {
		return Rec{}, err
	}
	return p.w.Write(p.vals)
}

// EnableBatch implements BatchConfigurable.
func (p *Project) EnableBatch(size int) { p.batch = size }

// NextBatch implements BatchIterator: the projection still materialises
// one output record per input record, but both the input pull and the
// output delivery are amortised over whole batches.
func (p *Project) NextBatch(b *Batch) error {
	if p.w == nil {
		return errState("project", "next before open")
	}
	b.Reset()
	if p.src == nil {
		p.src = inputSource(p.input, p.batch)
	}
	for !b.Full() {
		r, ok, err := p.src.next()
		if err != nil {
			b.Release()
			return err
		}
		if !ok {
			return nil
		}
		out, err := p.project(r)
		if err != nil {
			p.src.release()
			b.Release()
			return err
		}
		b.Append(out)
	}
	return nil
}

// Close implements Iterator.
func (p *Project) Close() error {
	if p.w == nil {
		return errState("project", "close before open")
	}
	if p.src != nil {
		p.src.release()
		p.src = nil
	}
	err := p.input.Close()
	if derr := p.w.Dispose(); err == nil {
		err = derr
	}
	p.w = nil
	return err
}

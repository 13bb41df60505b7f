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
// (new records must be fixed before being passed on), or in an arena
// when the consumer opted in, and unfixing inputs.
type Project struct {
	env     *Env
	input   Iterator
	proj    *expr.Projector
	schema  *record.Schema
	w       *ResultWriter
	inArena bool
	inb     *Batch   // the input batch, pulled at the output batch's target
	vars    [][]byte // the var-length payloads of the record being projected
}

// NewProjectExprs parses the given expression sources and builds a
// projection with optional output names. It opts its input into an
// arena: every input batch is released inside the NextBatch call that
// pulled it.
func NewProjectExprs(env *Env, input Iterator, srcs []string, names []string, mode expr.Mode) (*Project, error) {
	exprs := make([]expr.Expr, len(srcs))
	for i, s := range srcs {
		e, err := expr.Parse(s)
		if err != nil {
			return nil, err
		}
		exprs[i] = e
	}
	proj, out, err := expr.NewProjector(exprs, names, input.Schema(), mode)
	if err != nil {
		return nil, err
	}
	UseArena(input)
	return &Project{env: env, input: input, proj: proj, schema: out, inb: NewBatch(env.BatchSize())}, nil
}

// Schema implements Iterator.
func (p *Project) Schema() *record.Schema { return p.schema }

// UseArena implements ArenaOutput.
func (p *Project) UseArena() bool {
	p.inArena = true
	return true
}

// Open implements Iterator.
func (p *Project) Open() error {
	if p.w != nil {
		return errState("project", "already open")
	}
	w, err := p.env.newOutput("project", p.schema, p.inArena)
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

// NextBatch implements Iterator: it pulls one input batch at b's target,
// sizes, reserves and writes each output record in place, and releases
// the inputs with one UnfixBatch. An arena is freed whole: the caller has
// released every record delivered before.
func (p *Project) NextBatch(b *Batch) error {
	if p.w == nil {
		return errState("project", "next before open")
	}
	if p.inArena {
		p.w.arena.recycle(0)
	}
	b.Reset()
	if p.inb.Target() != b.Target() {
		p.inb = NewBatch(b.Target())
	}
	if err := p.input.NextBatch(p.inb); err != nil {
		return err
	}
	in := p.inb.Recs()
	for _, r := range in {
		var n int
		n, p.vars = p.proj.Size(r.Data, p.vars[:0])
		out, err := p.w.Reserve(n)
		if err == nil {
			b.Append(out) // released with b if the write fails
			err = p.proj.Write(r.Data, out.Data, p.vars)
		}
		if err != nil {
			p.inb.Release()
			b.Release()
			return err
		}
	}
	file.UnfixBatch(in)
	p.inb.Reset()
	return nil
}

// Close implements Iterator.
func (p *Project) Close() error {
	if p.w == nil {
		return errState("project", "close before open")
	}
	err := p.input.Close()
	if derr := p.w.Dispose(); err == nil {
		err = derr
	}
	p.w = nil
	return err
}

package core

import (
	"repro/internal/record"
	"repro/internal/storage/file"
)

// ResultWriter materialises operator output records into an intermediate
// file on the temp volume, following the ownership protocol: every record
// written is returned pinned ("complex operations like join that create
// new records have to fix them in the buffer before passing them on",
// paper §3). It holds the file's append cursor from creation to Dispose,
// so a record is built in its slot on the file's tail page.
type ResultWriter struct {
	env    *Env
	schema *record.Schema
	f      *file.File
	cur    *file.Appender
	arena  *arena // replaces f and cur for an operator opted into one
}

// NewResultWriter creates a writer with a fresh temp file.
func (e *Env) NewResultWriter(prefix string, schema *record.Schema) (*ResultWriter, error) {
	f, err := e.CreateTemp(prefix, schema)
	if err != nil {
		return nil, err
	}
	return &ResultWriter{env: e, schema: schema, f: f, cur: f.NewAppender()}, nil
}

// newOutput creates an operator's output writer: an arena or a temp file.
func (e *Env) newOutput(prefix string, schema *record.Schema, inArena bool) (*ResultWriter, error) {
	if inArena {
		return &ResultWriter{schema: schema, arena: new(arena)}, nil
	}
	return e.NewResultWriter(prefix, schema)
}

// Reserve appends an n-byte record for the caller to fill in place and
// returns it, pinned unless it is in the arena.
func (w *ResultWriter) Reserve(n int) (Rec, error) {
	if w.arena != nil {
		return Rec{Data: w.arena.alloc(n)}, nil
	}
	return w.cur.Reserve(n)
}

// Write encodes the values into a new record, returning it as Reserve does.
func (w *ResultWriter) Write(vals []record.Value) (Rec, error) {
	n, err := w.schema.EncodedLen(vals)
	if err != nil {
		return Rec{}, err
	}
	r, err := w.Reserve(n)
	if err != nil {
		return Rec{}, err
	}
	w.schema.EncodeInto(r.Data, vals)
	return r, nil
}

// WriteBytes appends pre-encoded record bytes, returning the pinned record.
func (w *ResultWriter) WriteBytes(data []byte) (Rec, error) { return w.cur.Append(data) }

// WriteBytesBatch appends len(datas) pre-encoded records, filling out
// with the pinned results — the batch protocol's materialisation path:
// pins are granted once per page instead of once per record. out must
// have the same length as datas.
func (w *ResultWriter) WriteBytesBatch(datas [][]byte, out []Rec) error {
	return w.cur.AppendBatch(datas, out)
}

// Dispose deletes the temp file. All written records must have been
// unpinned by their consumers.
func (w *ResultWriter) Dispose() error {
	if w.f == nil {
		return nil
	}
	w.cur.Close()
	err := w.env.DropTemp(w.f)
	w.f = nil
	return err
}

// Package core implements Volcano's query processing layer: the iterator
// (open-next-close) protocol with anonymous inputs, the full operator set
// of the paper (§1: scans, selection, sorting, two algorithms each for the
// binary matching operators, aggregation, duplicate elimination, relational
// division, ...), and the exchange operator that encapsulates all
// parallelism (§4).
package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/meter"
	"repro/internal/record"
	"repro/internal/storage/buffer"
	"repro/internal/storage/file"
)

// ResourceMeter accumulates one query's resource usage across every
// layer: buffer-pool fixes, device I/O, exchange and wire traffic,
// batch-pool memory, rows streamed, CPU time. It is an alias for the
// low-level meter type so the storage layer can account against it
// without importing core. A nil meter disables accounting everywhere.
type ResourceMeter = meter.Meter

// ResourceSnapshot is the plain-value copy of a ResourceMeter (the wire
// shape of the server's `resources` block).
type ResourceSnapshot = meter.Snapshot

// Rec is the element type of all streams: Volcano's NEXT_RECORD, a pinned
// buffer resident owned by exactly one operator at a time.
type Rec = file.Record

// Iterator is the uniform operator interface (paper, §3): every query
// processing algorithm supports open, next and close. Inputs are
// anonymous — an operator never knows whether its input is a file scan or
// a complex subtree, which is what makes operators freely composable and
// lets exchange splice in transparently.
//
// NextBatch is the paper's next, a run of records at a time: it resets b
// and refills it with at most b.Target() records. b.Len() == 0 with a nil error is the end of the stream; on an error the
// callee leaves b empty. Each record returned transfers ownership of one
// buffer pin to the caller, which must Unfix it, hold it, or pass it on.
// Batches of size 1 are the record-at-a-time discipline of §3.
type Iterator interface {
	Open() error
	NextBatch(b *Batch) error
	Close() error
	// Schema describes the records the iterator produces.
	Schema() *record.Schema
}

// Env is the execution environment shared by the operators of a query:
// the buffer pool and a volume on a virtual device for intermediate
// results. All "processes" (goroutines) of a parallel query share one Env,
// mirroring the shared-memory architecture of the paper.
type Env struct {
	Pool *buffer.Pool
	Temp *file.Volume

	// meter, when set, attributes the resource usage of operators built
	// over this Env — temp-file spills in particular — to one query.
	meter *ResourceMeter

	// batch is the number of records operators built over this Env pull
	// from an input they drain themselves (0 = DefaultBatchSize).
	batch int

	// tmpSeq is shared between an Env and every derivation (WithMeter,
	// WithBatchSize), so temp names stay unique across concurrent queries.
	tmpSeq *atomic.Uint64
}

// NewEnv builds an Env over the given pool and temp volume. The temp
// volume should live on a virtual (Mem) device.
func NewEnv(pool *buffer.Pool, temp *file.Volume) *Env {
	return &Env{Pool: pool, Temp: temp, tmpSeq: new(atomic.Uint64)}
}

// WithMeter returns a derived Env attributing resource usage to m. The
// pool, temp volume and temp-name sequence are shared with the receiver;
// only the attribution differs. A nil meter returns the receiver.
func (e *Env) WithMeter(m *ResourceMeter) *Env {
	if m == nil {
		return e
	}
	d := *e
	d.meter = m
	return &d
}

// WithBatchSize returns a derived Env whose operators pull the inputs
// they drain themselves — sort runs, hash builds and probes, aggregation,
// division, nested loops — in batches of n records (DefaultBatchSize when
// n < 1). Everything else is shared with the receiver.
func (e *Env) WithBatchSize(n int) *Env {
	d := *e
	d.batch = n
	return &d
}

// BatchSize returns the input batch size of operators built over e.
func (e *Env) BatchSize() int {
	if e.batch < 1 {
		return DefaultBatchSize
	}
	return e.batch
}

// Meter returns the meter usage is attributed to (nil = disabled).
func (e *Env) Meter() *ResourceMeter { return e.meter }

// TempName returns a fresh unique name for an intermediate-result file.
func (e *Env) TempName(prefix string) string {
	return fmt.Sprintf("%s.%d", prefix, e.tmpSeq.Add(1))
}

// CreateTemp creates an intermediate-result file on the temp volume. When
// the Env carries a meter the file's pool activity — the spill I/O of
// sort, hash join and aggregation — is attributed to it.
func (e *Env) CreateTemp(prefix string, schema *record.Schema) (*file.File, error) {
	return e.Temp.CreateWith(e.TempName(prefix), schema, e.meter)
}

// DropTemp deletes an intermediate-result file. All of its records must
// have been unpinned (paper, §4.1: "files on virtual devices must not be
// closed before all its records are unpinned in the buffer").
func (e *Env) DropTemp(f *file.File) error {
	if f == nil {
		return nil
	}
	return e.Temp.Delete(f.Name())
}

// Drain opens it, pulls every record through NextBatch refills of size
// records (DefaultBatchSize when size < 1), unfixing each batch in one
// coalesced pass, closes it and returns the count. Useful as a sink.
func Drain(it Iterator, size int) (int, error) {
	if err := it.Open(); err != nil {
		return 0, err
	}
	b := NewBatch(size)
	n := 0
	for {
		if err := it.NextBatch(b); err != nil {
			_ = it.Close()
			return n, err
		}
		if b.Len() == 0 {
			return n, it.Close()
		}
		n += b.Len()
		b.Release()
	}
}

// Collect runs the iterator to completion through NextBatch refills of
// size records (DefaultBatchSize when size < 1) and returns decoded rows;
// a convenience for tests, examples, and small result sets.
func Collect(it Iterator, size int) ([][]record.Value, error) {
	if err := it.Open(); err != nil {
		return nil, err
	}
	s := it.Schema()
	b := NewBatch(size)
	var rows [][]record.Value
	for {
		if err := it.NextBatch(b); err != nil {
			_ = it.Close()
			return rows, err
		}
		if b.Len() == 0 {
			return rows, it.Close()
		}
		for _, r := range b.Recs() {
			vals, err := s.Decode(r.Data)
			if err != nil {
				b.Release()
				_ = it.Close()
				return rows, err
			}
			for i := range vals {
				vals[i] = vals[i].Copy()
			}
			rows = append(rows, vals)
		}
		b.Release()
	}
}

// errState standardises the open/close protocol violations.
func errState(op, what string) error {
	return fmt.Errorf("core: %s: %s", op, what)
}

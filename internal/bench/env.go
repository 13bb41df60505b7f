// Package bench implements the paper's performance experiments (§5): the
// record-passing microbenchmark that measures the exchange operator's
// overhead, the packet-size sweep of Figures 2a/2b, and the ablations for
// the design decisions discussed throughout the paper.
package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/record"
	"repro/internal/storage/buffer"
	"repro/internal/storage/device"
	"repro/internal/storage/file"
)

// World bundles the runtime state experiments execute in.
type World struct {
	Reg  *device.Registry
	Pool *buffer.Pool
	Env  *core.Env
	Base *file.Volume
}

// NewWorld builds a fresh environment with two virtual devices (base
// tables and intermediate results) and a buffer pool of the given size.
func NewWorld(frames int, mode buffer.LockMode) (*World, error) {
	reg := device.NewRegistry()
	baseID := reg.NextID()
	if err := reg.Mount(device.NewMem(baseID)); err != nil {
		return nil, err
	}
	tempID := reg.NextID()
	if err := reg.Mount(device.NewMem(tempID)); err != nil {
		return nil, err
	}
	pool := buffer.NewPool(reg, frames, mode)
	return &World{
		Reg:  reg,
		Pool: pool,
		Env:  core.NewEnv(pool, file.NewVolume(pool, tempID)),
		Base: file.NewVolume(pool, baseID),
	}, nil
}

// Close releases the world's devices.
func (w *World) Close() { _ = w.Reg.CloseAll() }

// CheckBalanced returns an error if buffer pins leaked.
func (w *World) CheckBalanced() error {
	if n := w.Pool.Stats().CurrentlyFixedHint; n != 0 {
		return fmt.Errorf("bench: %d buffer pins leaked", n)
	}
	return nil
}

// GenSchema is the record layout of the paper's microbenchmark program:
// records filled with four integers (§5).
var GenSchema = record.MustSchema(
	record.Field{Name: "a", Type: record.TInt},
	record.Field{Name: "b", Type: record.TInt},
	record.Field{Name: "c", Type: record.TInt},
	record.Field{Name: "d", Type: record.TInt},
)

// Gen is the record generator iterator: it creates records with four
// integers, fixed in the buffer through a virtual file, exactly like the
// program measured in §5. It implements core.Iterator.
type Gen struct {
	env   *core.Env
	n     int
	start int64

	w *core.ResultWriter
	i int
	// vals is the reusable value buffer; arena, offs, datas and recs are
	// the refill's scratch: a whole batch is encoded into the arena
	// (AppendEncode reuses its backing array), then materialised through
	// one WriteBytesBatch call, so steady-state generation performs no
	// per-record allocation and no per-record page fix.
	vals  []record.Value
	arena []byte
	offs  []int
	datas [][]byte
	recs  []core.Rec
}

// NewGen creates a generator of n records with keys start..start+n-1.
func NewGen(env *core.Env, n int, start int64) *Gen {
	return &Gen{env: env, n: n, start: start}
}

// Schema implements core.Iterator.
func (g *Gen) Schema() *record.Schema { return GenSchema }

// Open implements core.Iterator.
func (g *Gen) Open() error {
	if g.w != nil {
		return fmt.Errorf("bench: gen already open")
	}
	w, err := g.env.NewResultWriter("gen", GenSchema)
	if err != nil {
		return err
	}
	g.w = w
	g.i = 0
	g.vals = make([]record.Value, 4)
	return nil
}

// NextBatch implements core.Iterator: a whole batch of records is encoded into one reusable arena (Schema.AppendEncode), then
// materialised through a single WriteBytesBatch call — one page fix per
// page instead of one per record, and no per-record allocation in the
// steady state.
func (g *Gen) NextBatch(b *core.Batch) error {
	if g.w == nil {
		return fmt.Errorf("bench: gen next before open")
	}
	b.Reset()
	count := b.Target()
	if rest := g.n - g.i; count > rest {
		count = rest
	}
	if count <= 0 {
		return nil
	}
	// Encode phase: arena offsets first, windows after, because an append
	// may grow the arena and move earlier bytes.
	g.arena = g.arena[:0]
	g.offs = g.offs[:0]
	for j := 0; j < count; j++ {
		k := g.start + int64(g.i+j)
		g.vals[0] = record.Int(k)
		g.vals[1] = record.Int(k * 2)
		g.vals[2] = record.Int(k ^ 0x5555)
		g.vals[3] = record.Int(-k)
		g.offs = append(g.offs, len(g.arena))
		arena, err := GenSchema.AppendEncode(g.arena, g.vals)
		if err != nil {
			return err
		}
		g.arena = arena
	}
	g.datas = g.datas[:0]
	for j := 0; j < count; j++ {
		end := len(g.arena)
		if j+1 < count {
			end = g.offs[j+1]
		}
		g.datas = append(g.datas, g.arena[g.offs[j]:end])
	}
	if cap(g.recs) < count {
		g.recs = make([]core.Rec, count)
	}
	g.recs = g.recs[:count]
	if err := g.w.WriteBytesBatch(g.datas, g.recs); err != nil {
		return err
	}
	g.i += count
	for _, r := range g.recs {
		b.Append(r)
	}
	return nil
}

// Close implements core.Iterator.
func (g *Gen) Close() error {
	if g.w == nil {
		return fmt.Errorf("bench: gen close before open")
	}
	err := g.w.Dispose()
	g.w = nil
	return err
}

// LoadPairs creates a two-int-column table with n rows (a = i % keyRange,
// b = i) on the base volume.
func (w *World) LoadPairs(name string, n, keyRange int) (*file.File, error) {
	s := record.MustSchema(
		record.Field{Name: "a", Type: record.TInt},
		record.Field{Name: "b", Type: record.TInt},
	)
	f, err := w.Base.Create(name, s)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		if _, err := f.Insert(s.MustEncode(record.Int(int64(i%keyRange)), record.Int(int64(i)))); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// LoadPartitionedInts creates k one-column files "<name>.<g>"; value i
// goes to partition i%k.
func (w *World) LoadPartitionedInts(name string, n, k int) ([]*file.File, error) {
	s := record.MustSchema(record.Field{Name: "v", Type: record.TInt})
	files := make([]*file.File, k)
	for p := range files {
		f, err := w.Base.Create(fmt.Sprintf("%s.%d", name, p), s)
		if err != nil {
			return nil, err
		}
		files[p] = f
	}
	for i := 0; i < n; i++ {
		if _, err := files[i%k].Insert(s.MustEncode(record.Int(int64(i)))); err != nil {
			return nil, err
		}
	}
	return files, nil
}

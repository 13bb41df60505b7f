package core

// ArenaOutput is implemented by an operator that can write the records it
// creates into an arena of reused heap blocks instead of pool pages. Its
// consumer calls UseArena once, before Open, and only if it releases
// every record of a batch before its next NextBatch call, holding none
// and passing none on. UseArena reports whether the output now goes to an
// arena.
type ArenaOutput interface{ UseArena() bool }

// UseArena opts the output of it into an arena if it has one.
func UseArena(it Iterator) bool {
	a, ok := it.(ArenaOutput)
	return ok && a.UseArena()
}

// arena is the store of a ResultWriter whose operator was opted in:
// blocks of arenaBlockSize bytes, or of one record's size if larger. An
// arena record is a Rec with no frame, so Unfix and Share do nothing; it
// lives until recycle frees its block.
type arena struct {
	used []arenaBlock // blocks holding records, in write order
	free [][]byte
}

type arenaBlock struct {
	buf    []byte
	off, n int // bytes and records written
}

const arenaBlockSize = 16 << 10

// alloc returns n bytes for a new record.
func (a *arena) alloc(n int) []byte {
	if k := len(a.used); k > 0 {
		if b := &a.used[k-1]; b.off+n <= len(b.buf) {
			b.off, b.n = b.off+n, b.n+1
			return b.buf[b.off-n : b.off : b.off]
		}
	}
	var buf []byte
	if k := len(a.free); k > 0 && len(a.free[k-1]) >= n {
		buf, a.free = a.free[k-1], a.free[:k-1]
	} else {
		buf = make([]byte, max(arenaBlockSize, n))
	}
	a.used = append(a.used, arenaBlock{buf: buf, off: n, n: 1})
	return buf[:n:n]
}

// recycle frees every block that holds none of the last live records
// written. Records are delivered in write order, so those are the ones
// still to deliver.
func (a *arena) recycle(live int) {
	keep := len(a.used)
	for ; keep > 0 && live > 0; live -= a.used[keep].n {
		keep--
	}
	for _, b := range a.used[:keep] {
		a.free = append(a.free, b.buf)
	}
	a.used = append(a.used[:0], a.used[keep:]...)
}

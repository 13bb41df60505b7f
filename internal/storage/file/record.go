package file

import (
	"repro/internal/record"
	"repro/internal/storage/buffer"
)

// Record is Volcano's NEXT_RECORD structure (paper, §3): a record
// identifier plus the record's address in the buffer pool. The record is
// pinned in the buffer and "owned by exactly one operator at any point in
// time"; the owner may hold on to it, unfix it, or pass it on.
//
// Record is a value type; passing it transfers ownership of one pin.
type Record struct {
	RID  record.RID
	Data []byte

	frame *buffer.Frame
	pool  *buffer.Pool
}

// Valid reports whether the record holds a pinned buffer resident.
func (r Record) Valid() bool { return r.frame != nil }

// Unfix releases the owner's pin on the record's page. The Data slice must
// not be used afterwards. A record never marks its page dirty: the append
// cursor that wrote it does, when it leaves the page.
func (r Record) Unfix() {
	if r.frame != nil {
		r.pool.Unfix(r.frame, false)
	}
}

// Share adds n extra pins to the record's page so that n additional owners
// can each Unfix independently — the mechanism behind exchange's broadcast
// variant (paper, §4.4): records are not copied, only pinned multiple
// times in the shared buffer.
func (r Record) Share(n int) {
	if r.frame != nil && n > 0 {
		r.pool.Pin(r.frame, n)
	}
}

// UnfixBatch releases every record's pin, coalescing runs of records on
// the same page into one bulk release (Pool.UnfixN) — the batch
// consumer's counterpart of per-record Unfix. Records created together
// land on the same page, so a typical batch costs one or two atomic
// subtractions instead of one per record.
func UnfixBatch(recs []Record) {
	for i := 0; i < len(recs); {
		r := recs[i]
		if r.frame == nil {
			i++
			continue
		}
		n := 1
		for i+n < len(recs) && recs[i+n].frame == r.frame {
			n++
		}
		r.pool.UnfixN(r.frame, n, false)
		i += n
	}
}

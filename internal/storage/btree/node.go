package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/record"
	"repro/internal/storage/device"
)

// Node page layout:
//
//	[ kind(1) pad(1) nkeys(2) next(4) left(4) dataStart(2) ]   header, 14 B
//	[ slot0(4) slot1(4) ... ]                                  grows up
//	          ... free space ...
//	[ entryN ... entry1 entry0 ]                               grows down
//
// Leaf entry payload:     key || rid  (rid = dev 4 | page 4 | slot 2)
// Internal entry payload: key || child(4)
//
// In internal nodes, `left` is the leftmost child: entries' children hold
// keys >= their separator key. In leaves, `next` chains to the right
// sibling for range scans.
const (
	nodeHdrSize = 14
	slotSize    = 4
	ridSize     = 10
	childSize   = 4

	kindLeaf     = 1
	kindInternal = 2

	// MaxKeyLen bounds keys so that any node can hold at least four
	// entries after a split.
	MaxKeyLen = (device.PageSize - nodeHdrSize) / 4 / 2
)

type node struct{ b []byte }

func (n node) setKind(k byte)     { n.b[0] = k }
func (n node) isLeaf() bool       { return n.b[0] == kindLeaf }
func (n node) nkeys() int         { return int(binary.LittleEndian.Uint16(n.b[2:])) }
func (n node) setNkeys(v int)     { binary.LittleEndian.PutUint16(n.b[2:], uint16(v)) }
func (n node) next() uint32       { return binary.LittleEndian.Uint32(n.b[4:]) }
func (n node) setNext(v uint32)   { binary.LittleEndian.PutUint32(n.b[4:], v) }
func (n node) left() uint32       { return binary.LittleEndian.Uint32(n.b[8:]) }
func (n node) setLeft(v uint32)   { binary.LittleEndian.PutUint32(n.b[8:], v) }
func (n node) dataStart() int     { return int(binary.LittleEndian.Uint16(n.b[12:])) }
func (n node) setDataStart(v int) { binary.LittleEndian.PutUint16(n.b[12:], uint16(v)) }

func (n node) init(kind byte) {
	for i := 0; i < nodeHdrSize; i++ {
		n.b[i] = 0
	}
	n.setKind(kind)
	n.setDataStart(device.PageSize)
}

func (n node) slot(i int) (off, length int) {
	base := nodeHdrSize + i*slotSize
	return int(binary.LittleEndian.Uint16(n.b[base:])), int(binary.LittleEndian.Uint16(n.b[base+2:]))
}

func (n node) setSlot(i, off, length int) {
	base := nodeHdrSize + i*slotSize
	binary.LittleEndian.PutUint16(n.b[base:], uint16(off))
	binary.LittleEndian.PutUint16(n.b[base+2:], uint16(length))
}

func (n node) payload(i int) []byte {
	off, length := n.slot(i)
	return n.b[off : off+length]
}

func (n node) valSize() int {
	if n.isLeaf() {
		return ridSize
	}
	return childSize
}

func (n node) key(i int) []byte {
	p := n.payload(i)
	return p[:len(p)-n.valSize()]
}

func (n node) rid(i int) record.RID {
	p := n.payload(i)
	v := p[len(p)-ridSize:]
	return record.RID{
		PageID: record.PageID{
			Dev:  record.DeviceID(binary.LittleEndian.Uint32(v)),
			Page: binary.LittleEndian.Uint32(v[4:]),
		},
		Slot: binary.LittleEndian.Uint16(v[8:]),
	}
}

func (n node) child(i int) uint32 {
	p := n.payload(i)
	return binary.LittleEndian.Uint32(p[len(p)-childSize:])
}

func encodeRID(rid record.RID) [ridSize]byte {
	var v [ridSize]byte
	binary.LittleEndian.PutUint32(v[0:], uint32(rid.Dev))
	binary.LittleEndian.PutUint32(v[4:], rid.Page)
	binary.LittleEndian.PutUint16(v[8:], rid.Slot)
	return v
}

// freeContiguous is the space between the slot directory and the payloads.
func (n node) freeContiguous() int {
	return n.dataStart() - (nodeHdrSize + n.nkeys()*slotSize)
}

// liveBytes is the total payload bytes in use.
func (n node) liveBytes() int {
	total := 0
	for i := 0; i < n.nkeys(); i++ {
		_, l := n.slot(i)
		total += l
	}
	return total
}

// freeTotal is the space available after compaction.
func (n node) freeTotal() int {
	return device.PageSize - nodeHdrSize - n.nkeys()*slotSize - n.liveBytes()
}

// compact rewrites payloads contiguously at the page end, squeezing out
// holes left by deletions.
func (n node) compact() {
	nk := n.nkeys()
	ents := make([][]byte, nk)
	for i := 0; i < nk; i++ {
		ents[i] = append([]byte(nil), n.payload(i)...)
	}
	n.setDataStart(device.PageSize)
	for i, p := range ents {
		off := n.dataStart() - len(p)
		copy(n.b[off:], p)
		n.setDataStart(off)
		n.setSlot(i, off, len(p))
	}
}

// search returns the index of the first entry whose key is >= key, and
// whether an exact match exists at that index.
func (n node) search(key []byte) (int, bool) {
	lo, hi := 0, n.nkeys()
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(n.key(mid), key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	exact := lo < n.nkeys() && bytes.Equal(n.key(lo), key)
	return lo, exact
}

// insertAt places payload at entry index i, shifting the slot directory.
// The caller must ensure space (possibly via compact).
func (n node) insertAt(i int, payload []byte) error {
	need := len(payload) + slotSize
	if n.freeContiguous() < need {
		if n.freeTotal() < need {
			return errNodeFull
		}
		n.compact()
	}
	nk := n.nkeys()
	// Shift slots [i, nk) up by one.
	base := nodeHdrSize + i*slotSize
	copy(n.b[base+slotSize:nodeHdrSize+(nk+1)*slotSize], n.b[base:nodeHdrSize+nk*slotSize])
	off := n.dataStart() - len(payload)
	copy(n.b[off:], payload)
	n.setDataStart(off)
	n.setSlot(i, off, len(payload))
	n.setNkeys(nk + 1)
	return nil
}

var errNodeFull = fmt.Errorf("btree: node full")

// leafPayload builds a leaf entry payload.
func leafPayload(key []byte, rid record.RID) []byte {
	v := encodeRID(rid)
	p := make([]byte, 0, len(key)+ridSize)
	p = append(p, key...)
	return append(p, v[:]...)
}

// internalPayload builds an internal entry payload.
func internalPayload(key []byte, child uint32) []byte {
	p := make([]byte, 0, len(key)+childSize)
	p = append(p, key...)
	var c [4]byte
	binary.LittleEndian.PutUint32(c[:], child)
	return append(p, c[:]...)
}

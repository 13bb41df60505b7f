// Package file implements Volcano's file layer: volumes with a
// lock-protected table of contents (VTOC), files of chained slotted pages,
// record-level operations addressed by RID, and file scans. Intermediate
// results use files on virtual devices, so they receive unique RIDs and can
// "be managed in all operators as if they resided on a real device"
// (paper, §3).
package file

import (
	"encoding/binary"
	"fmt"

	"repro/internal/record"
	"repro/internal/storage/device"
)

// Slotted page layout:
//
//	[ next(4) | nslots(2) | dataStart(2) | slot0(4) slot1(4) ... ]
//	          ... free space ...
//	[ recN ... rec1 rec0 ]  (records grow down from the page end)
//
// Each slot holds (offset uint16, length uint16). A slot with offset
// slotDeleted marks a deleted record; slots are never reused so RIDs stay
// stable.
const (
	pageHdrSize = 8
	slotSize    = 4
	slotDeleted = 0xFFFF

	// MaxRecordLen is the largest record storable on one page.
	MaxRecordLen = device.PageSize - pageHdrSize - slotSize
)

type page struct{ b []byte }

func (p page) next() uint32       { return binary.LittleEndian.Uint32(p.b[0:]) }
func (p page) setNext(n uint32)   { binary.LittleEndian.PutUint32(p.b[0:], n) }
func (p page) nslots() int        { return int(binary.LittleEndian.Uint16(p.b[4:])) }
func (p page) setNslots(n int)    { binary.LittleEndian.PutUint16(p.b[4:], uint16(n)) }
func (p page) dataStart() int     { return int(binary.LittleEndian.Uint16(p.b[6:])) }
func (p page) setDataStart(n int) { binary.LittleEndian.PutUint16(p.b[6:], uint16(n)) }

// init prepares an empty page image.
func (p page) init() {
	p.setNext(0)
	p.setNslots(0)
	p.setDataStart(device.PageSize)
}

func (p page) slot(i int) (off, length int) {
	base := pageHdrSize + i*slotSize
	return int(binary.LittleEndian.Uint16(p.b[base:])), int(binary.LittleEndian.Uint16(p.b[base+2:]))
}

func (p page) setSlot(i, off, length int) {
	base := pageHdrSize + i*slotSize
	binary.LittleEndian.PutUint16(p.b[base:], uint16(off))
	binary.LittleEndian.PutUint16(p.b[base+2:], uint16(length))
}

// freeSpace returns the bytes available for one more record plus its slot.
func (p page) freeSpace() int {
	return p.dataStart() - (pageHdrSize + p.nslots()*slotSize) - slotSize
}

// reserve makes room for an n-byte record and returns its slot number and
// its bytes on the page. The caller must have checked freeSpace.
func (p page) reserve(n int) (int, []byte) {
	slot := p.nslots()
	off := p.dataStart() - n
	p.setDataStart(off)
	p.setSlot(slot, off, n)
	p.setNslots(slot + 1)
	return slot, p.b[off : off+n : off+n]
}

// insert places data in the page and returns its slot number.
// The caller must have checked freeSpace.
func (p page) insert(data []byte) int {
	slot, b := p.reserve(len(data))
	copy(b, data)
	return slot
}

// record returns the bytes of the record in the given slot, or an error if
// the slot is out of range or deleted.
func (p page) record(slot int) ([]byte, error) {
	if slot >= p.nslots() {
		return nil, fmt.Errorf("file: slot %d out of range (%d slots)", slot, p.nslots())
	}
	off, length := p.slot(slot)
	if off == slotDeleted {
		return nil, fmt.Errorf("file: slot %d is deleted", slot)
	}
	return p.b[off : off+length : off+length], nil
}

// delete marks the slot deleted. Space is not reclaimed (RID stability).
func (p page) delete(slot int) error {
	if slot >= p.nslots() {
		return fmt.Errorf("file: slot %d out of range (%d slots)", slot, p.nslots())
	}
	off, _ := p.slot(slot)
	if off == slotDeleted {
		return fmt.Errorf("file: slot %d already deleted", slot)
	}
	p.setSlot(slot, slotDeleted, 0)
	return nil
}

// pid helper.
func pid(dev record.DeviceID, pg uint32) record.PageID {
	return record.PageID{Dev: dev, Page: pg}
}

package record

import "fmt"

// DeviceID identifies a device (real or virtual) within a running system.
type DeviceID uint32

// PageID identifies one page (cluster) on a device.
type PageID struct {
	Dev  DeviceID
	Page uint32
}

// NilPage is the zero PageID, used as a "no page" sentinel. Page numbers
// on devices start at 1 so that the zero value is never a valid page.
var NilPage = PageID{}

// IsNil reports whether the PageID is the "no page" sentinel.
func (p PageID) IsNil() bool { return p == NilPage }

// String renders the PageID as dev:page.
func (p PageID) String() string { return fmt.Sprintf("%d:%d", p.Dev, p.Page) }

// RID is a record identifier: the page holding the record and the slot
// within that page. RIDs are assigned to stored records and — via virtual
// devices — to intermediate results, so every record in the system has a
// unique identity (paper, §3).
type RID struct {
	PageID
	Slot uint16
}

// String renders the RID as dev:page.slot.
func (r RID) String() string { return fmt.Sprintf("%d:%d.%d", r.Dev, r.Page, r.Slot) }

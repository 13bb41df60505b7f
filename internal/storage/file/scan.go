package file

import (
	"fmt"

	"repro/internal/record"
)

// Scan iterates over all live records of a file in storage order. It pins
// one page at a time; each record returned carries its own pin, which the
// caller must release (the ownership protocol of §3).
type Scan struct {
	f     *File
	cur   record.PageID
	slot  int
	frame *pinnedPage
	done  bool
	// entered counts the pages the scan has fixed. A page chain is at most
	// the file's pages long, so a next-page link that would take entered
	// past pages (the count as last read) is corrupt.
	entered, pages int
}

// pinnedPage wraps the scan's own pin on the current page.
type pinnedPage struct {
	pg  page
	rec Record // the scan's own pin, reused to unfix
}

// NewScan opens a scan over the file.
func (f *File) NewScan() *Scan {
	return &Scan{f: f, cur: f.FirstPage()}
}

// Next returns the next record, pinned for the caller. It returns ok=false
// at end of file.
func (s *Scan) Next() (Record, bool, error) {
	var one [1]Record
	run, err := s.NextRun(one[:0], 1)
	if err != nil || len(run) == 0 {
		return Record{}, false, err
	}
	return run[0], true, nil
}

// NextRun appends up to max of the next records to dst and returns the
// extended slice. The records all come from one page and carry one pin
// each for the caller, granted by a single Pool.Pin for the whole run:
// the mirror of UnfixBatch. dst comes back unextended only at end of file
// or on an error.
func (s *Scan) NextRun(dst []Record, max int) ([]Record, error) {
	for max > 0 {
		if s.done {
			return dst, nil
		}
		if s.frame == nil {
			if s.cur.Page == 0 {
				s.done = true
				return dst, nil
			}
			fr, err := s.f.vol.pool.FixFor(s.cur, s.f.meter)
			if err != nil {
				s.done = true
				return dst, fmt.Errorf("file: scan %q: %w", s.f.Name(), err)
			}
			s.frame = &pinnedPage{
				pg:  page{fr.Data()},
				rec: Record{RID: record.RID{PageID: s.cur}, frame: fr, pool: s.f.vol.pool},
			}
			s.slot = 0
			s.entered++
		}
		pg, fr := s.frame.pg, s.frame.rec.frame
		n := len(dst)
		for s.slot < pg.nslots() && len(dst)-n < max {
			slot := s.slot
			s.slot++
			data, err := pg.record(slot)
			if err != nil {
				// This call's records carry no pin yet: drop them.
				s.Close()
				return dst[:n], fmt.Errorf("file: scan %q page %s: %w", s.f.Name(), s.cur, err)
			}
			dst = append(dst, Record{
				RID:   record.RID{PageID: s.cur, Slot: uint16(slot)},
				Data:  data,
				frame: fr,
				pool:  s.f.vol.pool,
			})
		}
		if k := len(dst) - n; k > 0 {
			s.f.vol.pool.Pin(fr, k) // the run's pins, transferred to the caller
			return dst, nil
		}
		// Page exhausted: release our pin, move on.
		next := pg.next()
		s.frame.rec.Unfix()
		s.frame = nil
		if next == 0 {
			s.done = true
			return dst, nil
		}
		if s.entered >= s.pages {
			// Pages takes the VTOC lock: reread it only when the count
			// reaches it, so a file that grows during the scan scans in full.
			if s.pages = s.f.Pages(); s.entered >= s.pages {
				s.done = true
				return dst, fmt.Errorf("file: scan %q page %s: next-page link to page %d passes the file's %d pages", s.f.Name(), s.cur, next, s.pages)
			}
		}
		s.cur = pid(s.cur.Dev, next)
	}
	return dst, nil
}

// Close releases the scan's resources. Safe to call at any point.
func (s *Scan) Close() {
	if s.frame != nil {
		s.frame.rec.Unfix()
		s.frame = nil
	}
	s.done = true
}

package core

import (
	"container/heap"
	"fmt"
	"sort"

	"repro/internal/expr"
	"repro/internal/record"
	"repro/internal/storage/file"
)

// RunGen selects the sort's run-generation algorithm.
type RunGen uint8

const (
	// RunGenQuicksort buffers RunSize records, sorts them in memory and
	// writes each batch as one run.
	RunGenQuicksort RunGen = iota
	// RunGenReplacementSelection uses a selection heap of RunSize
	// records: each record still no smaller than the last one written
	// joins the current run, so runs average twice the memory size on
	// random input — fewer runs, shallower merges (the technique of the
	// companion parallel-sorting work, TR 89-008).
	RunGenReplacementSelection
)

// String names the run-generation algorithm.
func (g RunGen) String() string {
	if g == RunGenReplacementSelection {
		return "replacement-selection"
	}
	return "quicksort"
}

// Sort is Volcano's external sort iterator: on open it drains its input
// into sorted runs on the temp (virtual) device, cascade-merges runs until
// at most fan-in remain, and then serves the final merge lazily through
// next.
type Sort struct {
	env   *Env
	input Iterator
	cmp   expr.KeyCompare
	// RunSize is the number of records per in-memory run (default 4096).
	RunSize int
	// FanIn is the merge fan-in (default 8).
	FanIn int
	// RunGen selects quicksort (default) or replacement selection.
	RunGen RunGen

	runsGenerated int
	runs          []*file.File
	merge         *runMerge
	opState
}

// RunsGenerated reports how many initial runs the last Open produced.
func (s *Sort) RunsGenerated() int { return s.runsGenerated }

// NewSort sorts input by the given terms.
func NewSort(env *Env, input Iterator, spec []record.SortSpec) *Sort {
	return NewSortFunc(env, input, expr.NewKeyCompare(input.Schema(), spec))
}

// NewSortFunc sorts input by an arbitrary comparison support function.
func NewSortFunc(env *Env, input Iterator, cmp expr.KeyCompare) *Sort {
	return &Sort{env: env, input: input, cmp: cmp, RunSize: 4096, FanIn: 8}
}

// Schema implements Iterator.
func (s *Sort) Schema() *record.Schema { return s.input.Schema() }

// Open implements Iterator. This is where all the work happens: sort is a
// stop-and-go operator.
func (s *Sort) Open() error { return s.opening("sort", s.openImpl) }

func (s *Sort) openImpl() error {
	if s.RunSize <= 0 {
		s.RunSize = 4096
	}
	if s.FanIn < 2 {
		s.FanIn = 8
	}
	s.runsGenerated = 0
	build := s.buildRuns
	if s.RunGen == RunGenReplacementSelection {
		build = s.buildRunsReplacement
	}
	if err := build(); err != nil {
		s.cleanup()
		return err
	}
	s.runsGenerated = len(s.runs)
	// Cascaded merge until at most FanIn runs remain.
	for len(s.runs) > s.FanIn {
		if err := s.mergeStep(); err != nil {
			s.cleanup()
			return err
		}
	}
	m, err := newRunMerge(s.env, s.runs, s.Schema(), s.cmp)
	if err != nil {
		s.cleanup()
		return err
	}
	s.merge = m
	return nil
}

// buildRuns drains the input into sorted run files.
func (s *Sort) buildRuns() error {
	buf := make([][]byte, 0, s.RunSize)
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		sort.SliceStable(buf, func(i, j int) bool { return s.cmp(buf[i], buf[j]) < 0 })
		run, err := s.env.CreateTemp("sortrun", s.Schema())
		if err != nil {
			return err
		}
		for _, data := range buf {
			if _, err := run.Insert(data); err != nil {
				return err
			}
		}
		s.runs = append(s.runs, run)
		buf = buf[:0]
		return nil
	}
	// The record bytes are copied: the run file is the sort's working
	// storage, and the input batch is released as soon as it is copied.
	err := drainInput(s.input, s.env.BatchSize(), func(recs []Rec) error {
		for _, r := range recs {
			buf = append(buf, append([]byte(nil), r.Data...))
			if len(buf) == s.RunSize {
				if err := flush(); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return flush()
}

// buildRunsReplacement drains the input through a selection heap: the
// smallest record whose key is still >= the last one written joins the
// current run; smaller records are earmarked for the next run.
func (s *Sort) buildRunsReplacement() error {
	type entry struct {
		data []byte
		run  int
		seq  int64 // arrival order, for stability among equal keys
	}
	less := func(a, b entry) bool {
		if a.run != b.run {
			return a.run < b.run
		}
		if c := s.cmp(a.data, b.data); c != 0 {
			return c < 0
		}
		return a.seq < b.seq
	}
	var h []entry
	up := func(i int) {
		for i > 0 {
			p := (i - 1) / 2
			if !less(h[i], h[p]) {
				break
			}
			h[i], h[p] = h[p], h[i]
			i = p
		}
	}
	down := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < len(h) && less(h[l], h[m]) {
				m = l
			}
			if r < len(h) && less(h[r], h[m]) {
				m = r
			}
			if m == i {
				return
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}

	curRun := 0
	var out *file.File
	// writeTop writes the heap's smallest entry to its run, starting the
	// run's file when the entry is the first of its run.
	writeTop := func() error {
		if top := h[0]; out == nil || top.run != curRun {
			f, err := s.env.CreateTemp("sortrun", s.Schema())
			if err != nil {
				return err
			}
			s.runs = append(s.runs, f)
			curRun, out = top.run, f
		}
		_, err := out.Insert(h[0].data)
		return err
	}
	var seq int64
	// Until the heap is full an arrival joins run 0. After that each
	// arrival writes the top and takes its slot, on the top's run when it
	// sorts no lower than the top, on the next run otherwise.
	err := drainInput(s.input, s.env.BatchSize(), func(recs []Rec) error {
		for _, r := range recs {
			e := entry{data: append([]byte(nil), r.Data...), seq: seq}
			seq++
			if len(h) < s.RunSize {
				h = append(h, e)
				up(len(h) - 1)
				continue
			}
			if err := writeTop(); err != nil {
				return err
			}
			if e.run = curRun; s.cmp(e.data, h[0].data) < 0 {
				e.run++
			}
			h[0] = e
			down(0)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for len(h) > 0 {
		if err := writeTop(); err != nil {
			return err
		}
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		down(0)
	}
	return nil
}

// mergeStep merges the first FanIn runs into one new run.
func (s *Sort) mergeStep() error {
	group := s.runs[:s.FanIn]
	m, err := newRunMerge(s.env, group, s.Schema(), s.cmp)
	if err != nil {
		return err
	}
	out, err := s.env.CreateTemp("sortrun", s.Schema())
	if err != nil {
		m.close()
		return err
	}
	for {
		r, ok, err := m.next()
		if err != nil {
			m.close()
			return err
		}
		if !ok {
			break
		}
		_, err = out.Insert(r.Data)
		r.Unfix()
		if err != nil {
			m.close()
			return err
		}
	}
	m.close()
	for _, run := range group {
		if err := s.env.DropTemp(run); err != nil {
			return err
		}
	}
	// The merged run replaces its inputs at the front so run order keeps
	// reflecting arrival order (stability tie-break in the heap).
	s.runs = append([]*file.File{out}, s.runs[s.FanIn:]...)
	return nil
}

// NextBatch implements Iterator: one call serves a whole run of records
// from the final merge.
func (s *Sort) NextBatch(b *Batch) error {
	if !s.open {
		return errState("sort", "next before open")
	}
	return fill(b, s.merge.next)
}

// Close implements Iterator.
func (s *Sort) Close() error {
	if ok, err := s.closing("sort"); !ok {
		return err
	}
	s.merge.close()
	s.merge = nil
	return s.cleanup()
}

func (s *Sort) cleanup() error {
	var first error
	for _, run := range s.runs {
		if err := s.env.DropTemp(run); err != nil && first == nil {
			first = err
		}
	}
	s.runs = nil
	return first
}

// runMerge is a k-way heap merge over run-file scans.
type runMerge struct {
	scans []*file.Scan
	h     mergeHeap
}

type mergeEntry struct {
	rec Rec
	src int
}

type mergeHeap struct {
	entries []mergeEntry
	cmp     expr.KeyCompare
}

func (h *mergeHeap) Len() int { return len(h.entries) }
func (h *mergeHeap) Less(i, j int) bool {
	c := h.cmp(h.entries[i].rec.Data, h.entries[j].rec.Data)
	if c != 0 {
		return c < 0
	}
	// Stability across runs: earlier run wins ties.
	return h.entries[i].src < h.entries[j].src
}
func (h *mergeHeap) Swap(i, j int) { h.entries[i], h.entries[j] = h.entries[j], h.entries[i] }
func (h *mergeHeap) Push(x any)    { h.entries = append(h.entries, x.(mergeEntry)) }
func (h *mergeHeap) Pop() any {
	n := len(h.entries)
	e := h.entries[n-1]
	h.entries = h.entries[:n-1]
	return e
}

// release unfixes every record still held by the heap.
func (h *mergeHeap) release() {
	for _, e := range h.entries {
		e.rec.Unfix()
	}
	h.entries = nil
}

// advance hands out the heap's smallest record, replacing it with the
// next record of the same source (as next returns it) or dropping the
// source at its end.
func (h *mergeHeap) advance(next func(src int) (Rec, bool, error)) (Rec, bool, error) {
	if h.Len() == 0 {
		return Rec{}, false, nil
	}
	e := h.entries[0]
	r, ok, err := next(e.src)
	if err != nil {
		return Rec{}, false, err
	}
	if ok {
		h.entries[0] = mergeEntry{rec: r, src: e.src}
		heap.Fix(h, 0)
	} else {
		heap.Pop(h)
	}
	return e.rec, true, nil
}

func newRunMerge(env *Env, runs []*file.File, schema *record.Schema, cmp expr.KeyCompare) (*runMerge, error) {
	m := &runMerge{h: mergeHeap{cmp: cmp}}
	for i, run := range runs {
		sc := run.NewScan()
		m.scans = append(m.scans, sc)
		r, ok, err := sc.Next()
		if err != nil {
			m.close()
			return nil, err
		}
		if ok {
			m.h.entries = append(m.h.entries, mergeEntry{rec: r, src: i})
		}
	}
	heap.Init(&m.h)
	return m, nil
}

func (m *runMerge) next() (Rec, bool, error) {
	return m.h.advance(func(src int) (Rec, bool, error) { return m.scans[src].Next() })
}

func (m *runMerge) close() {
	m.h.release()
	for _, sc := range m.scans {
		sc.Close()
	}
	m.scans = nil
}

// Merge is the single-level merge iterator derived from the sort module
// (paper, §4.4): it merges several already-sorted inputs. Its natural use
// is a merge network above an exchange operator that keeps producer
// streams separate; the inputs are read through default-size cursors, so
// a stream lends each packet that fits whole.
type Merge struct {
	inputs []Iterator
	srcs   []*Cursor
	cmp    expr.KeyCompare
	h      mergeHeap
	opState
}

// NewMerge merges the sorted inputs by the comparison function. All inputs
// must share a schema.
func NewMerge(inputs []Iterator, cmp expr.KeyCompare) (*Merge, error) {
	if len(inputs) == 0 {
		return nil, errState("merge", "no inputs")
	}
	s := inputs[0].Schema()
	for _, in := range inputs[1:] {
		if !in.Schema().Equal(s) {
			return nil, errState("merge", fmt.Sprintf("schema mismatch: %s vs %s", s, in.Schema()))
		}
	}
	return &Merge{inputs: inputs, cmp: cmp}, nil
}

// NewMergeSpec merges sorted inputs by sort terms.
func NewMergeSpec(inputs []Iterator, spec []record.SortSpec) (*Merge, error) {
	if len(inputs) == 0 {
		return nil, errState("merge", "no inputs")
	}
	return NewMerge(inputs, expr.NewKeyCompare(inputs[0].Schema(), spec))
}

// Schema implements Iterator.
func (m *Merge) Schema() *record.Schema { return m.inputs[0].Schema() }

// Open implements Iterator.
func (m *Merge) Open() error { return m.opening("merge", m.openImpl) }

func (m *Merge) openImpl() error {
	m.h = mergeHeap{cmp: m.cmp}
	m.srcs = m.srcs[:0]
	for i, in := range m.inputs {
		if err := in.Open(); err != nil {
			m.unwind()
			return err
		}
		src := NewCursor(in, 0)
		m.srcs = append(m.srcs, src)
		r, ok, err := src.Pull()
		if err != nil {
			m.unwind()
			return err
		}
		if ok {
			m.h.entries = append(m.h.entries, mergeEntry{rec: r, src: i})
		}
	}
	heap.Init(&m.h)
	return nil
}

// next hands out the smallest head record and refills its input's slot.
func (m *Merge) next() (Rec, bool, error) {
	return m.h.advance(func(src int) (Rec, bool, error) { return m.srcs[src].Pull() })
}

// NextBatch implements Iterator.
func (m *Merge) NextBatch(b *Batch) error {
	if !m.open {
		return errState("merge", "next before open")
	}
	return fill(b, m.next)
}

// unwind releases everything the heap and the cursors still pin and
// closes every input opened so far, returning the first Close error.
func (m *Merge) unwind() error {
	m.h.release()
	var first error
	for i, src := range m.srcs {
		src.Release()
		if err := m.inputs[i].Close(); err != nil && first == nil {
			first = err
		}
	}
	m.srcs = m.srcs[:0]
	return first
}

// Close implements Iterator.
func (m *Merge) Close() error {
	if ok, err := m.closing("merge"); !ok {
		return err
	}
	return m.unwind()
}

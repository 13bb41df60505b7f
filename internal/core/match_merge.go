package core

import "repro/internal/record"

// MergeMatch is the sort-based one-to-one match algorithm: both inputs
// must arrive sorted ascending on their key fields (wrap them in Sort
// iterators or use NewMergeMatchSorted). It walks groups of equal keys on
// both sides and emits the classes the operation selects.
type MergeMatch struct {
	env      *Env
	op       MatchOp
	left     Iterator
	right    Iterator
	leftKey  record.Key
	rightKey record.Key
	schema   *record.Schema

	comb    combiner
	lrec    Rec
	lok     bool
	rrec    Rec
	rok     bool
	pending recQueue
	lsrc    *Cursor
	rsrc    *Cursor
	opState
}

// NewMergeMatch builds the operator over already-sorted inputs.
func NewMergeMatch(env *Env, op MatchOp, left, right Iterator, leftKey, rightKey record.Key) (*MergeMatch, error) {
	if err := checkKeys("mergematch", left.Schema(), right.Schema(), leftKey, rightKey); err != nil {
		return nil, err
	}
	schema, err := matchOutputSchema(op, left.Schema(), right.Schema())
	if err != nil {
		return nil, err
	}
	return &MergeMatch{
		env: env, op: op, left: left, right: right,
		leftKey: leftKey, rightKey: rightKey, schema: schema,
		comb: newCombiner(left.Schema(), right.Schema()),
	}, nil
}

// NewMergeMatchSorted wraps both inputs in Sort iterators on the key
// fields and builds a MergeMatch — the classic sort-merge join plan.
func NewMergeMatchSorted(env *Env, op MatchOp, left, right Iterator, leftKey, rightKey record.Key) (*MergeMatch, error) {
	lspec := make([]record.SortSpec, len(leftKey))
	for i, f := range leftKey {
		lspec[i] = record.SortSpec{Field: f}
	}
	rspec := make([]record.SortSpec, len(rightKey))
	for i, f := range rightKey {
		rspec[i] = record.SortSpec{Field: f}
	}
	return NewMergeMatch(env, op, NewSort(env, left, lspec), NewSort(env, right, rspec), leftKey, rightKey)
}

// Schema implements Iterator.
func (m *MergeMatch) Schema() *record.Schema { return m.schema }

// Open implements Iterator.
func (m *MergeMatch) Open() error { return m.opening("mergematch", m.openImpl) }

func (m *MergeMatch) openImpl() error {
	if m.op.combinesSchemas() {
		w, err := m.env.NewResultWriter("mergematch", m.schema)
		if err != nil {
			return err
		}
		m.comb.w = w
	}
	if err := m.left.Open(); err != nil {
		_ = m.comb.dispose()
		return err
	}
	if err := m.right.Open(); err != nil {
		_ = m.left.Close()
		_ = m.comb.dispose()
		return err
	}
	m.lsrc = NewCursor(m.left, m.env.BatchSize())
	m.rsrc = NewCursor(m.right, m.env.BatchSize())
	var err error
	if m.lrec, m.lok, err = m.lsrc.Pull(); err != nil {
		m.abort()
		return err
	}
	if m.rrec, m.rok, err = m.rsrc.Pull(); err != nil {
		m.abort()
		return err
	}
	return nil
}

// advanceLeft fetches the next left record.
func (m *MergeMatch) advanceLeft() error {
	var err error
	m.lrec, m.lok, err = m.lsrc.Pull()
	return err
}

func (m *MergeMatch) advanceRight() error {
	var err error
	m.rrec, m.rok, err = m.rsrc.Pull()
	return err
}

// step consumes the next key group from whichever side is due, queueing
// outputs on m.pending; done reports that both inputs are exhausted.
func (m *MergeMatch) step() (done bool, err error) {
	switch {
	case m.lok && m.rok:
		c := record.CompareKeys(m.left.Schema(), m.lrec.Data, m.leftKey,
			m.right.Schema(), m.rrec.Data, m.rightKey)
		switch {
		case c < 0:
			return false, m.leftOnlyGroup()
		case c > 0:
			return false, m.rightOnlyGroup()
		default:
			return false, m.matchedGroup()
		}
	case m.lok:
		return false, m.leftOnlyGroup()
	case m.rok:
		return false, m.rightOnlyGroup()
	default:
		return true, nil
	}
}

// NextBatch implements Iterator: queued outputs move into the batch up
// to its target, and group consumption keeps going until the batch
// fills or both inputs are exhausted.
func (m *MergeMatch) NextBatch(b *Batch) error {
	if !m.open {
		return errState("mergematch", "next before open")
	}
	b.Reset()
	for {
		m.pending.moveTo(b)
		if b.Full() {
			return nil
		}
		done, err := m.step()
		if err != nil {
			b.Release()
			return err
		}
		if done {
			return nil
		}
	}
}

// sameLeftKey reports whether data shares the current left group key.
func (m *MergeMatch) sameKey(s *record.Schema, a []byte, ka record.Key, b []byte, kb record.Key) bool {
	return record.CompareKeys(s, a, ka, s, b, kb) == 0
}

// leftOnlyGroup consumes the group of left records equal to the current
// one, emitting them if the operation outputs the left-only class.
func (m *MergeMatch) leftOnlyGroup() error {
	emitEach, emitOne, pad := false, false, false
	switch m.op {
	case MatchAnti:
		emitEach = true
	case MatchLeftOuter, MatchFullOuter:
		emitEach, pad = true, true
	case MatchUnion, MatchDifference:
		emitOne = true
	}
	groupKey := append([]byte(nil), m.lrec.Data...)
	first := true
	for m.lok && m.sameKey(m.left.Schema(), m.lrec.Data, m.leftKey, groupKey, m.leftKey) {
		switch {
		case emitEach && pad:
			out, err := m.comb.combine(m.lrec.Data, m.comb.zeroR)
			if err != nil {
				m.lrec.Unfix()
				return err
			}
			m.pending.push(out)
			m.lrec.Unfix()
		case emitEach:
			m.pending.push(m.lrec)
		case emitOne && first:
			m.pending.push(m.lrec)
		default:
			m.lrec.Unfix()
		}
		first = false
		if err := m.advanceLeft(); err != nil {
			return err
		}
	}
	return nil
}

// rightOnlyGroup mirrors leftOnlyGroup for the right input.
func (m *MergeMatch) rightOnlyGroup() error {
	emitEach, emitOne, pad := false, false, false
	switch m.op {
	case MatchRightOuter, MatchFullOuter:
		emitEach, pad = true, true
	case MatchUnion, MatchAntiDifference:
		emitOne = true
	}
	groupKey := append([]byte(nil), m.rrec.Data...)
	first := true
	for m.rok && m.sameKey(m.right.Schema(), m.rrec.Data, m.rightKey, groupKey, m.rightKey) {
		switch {
		case emitEach && pad:
			out, err := m.comb.combine(m.comb.zeroL, m.rrec.Data)
			if err != nil {
				m.rrec.Unfix()
				return err
			}
			m.pending.push(out)
			m.rrec.Unfix()
		case emitEach:
			m.pending.push(m.rrec)
		case emitOne && first:
			m.pending.push(m.rrec)
		default:
			m.rrec.Unfix()
		}
		first = false
		if err := m.advanceRight(); err != nil {
			return err
		}
	}
	return nil
}

// matchedGroup handles equal key groups on both sides.
func (m *MergeMatch) matchedGroup() error {
	// Buffer the right group (records stay pinned in the buffer, as the
	// hash-based algorithm keeps its hash table pinned).
	groupKey := append([]byte(nil), m.rrec.Data...)
	var rgroup []Rec
	for m.rok && m.sameKey(m.right.Schema(), m.rrec.Data, m.rightKey, groupKey, m.rightKey) {
		rgroup = append(rgroup, m.rrec)
		if err := m.advanceRight(); err != nil {
			for _, r := range rgroup {
				r.Unfix()
			}
			return err
		}
	}
	releaseGroup := func() {
		for _, r := range rgroup {
			r.Unfix()
		}
	}

	lKeySample := append([]byte(nil), m.lrec.Data...)
	first := true
	for m.lok && m.sameKey(m.left.Schema(), m.lrec.Data, m.leftKey, lKeySample, m.leftKey) {
		switch m.op {
		case MatchJoin, MatchLeftOuter, MatchRightOuter, MatchFullOuter:
			for _, r := range rgroup {
				out, err := m.comb.combine(m.lrec.Data, r.Data)
				if err != nil {
					m.lrec.Unfix()
					releaseGroup()
					return err
				}
				m.pending.push(out)
			}
			m.lrec.Unfix()
		case MatchSemi:
			m.pending.push(m.lrec)
		case MatchUnion, MatchIntersect:
			if first {
				m.pending.push(m.lrec)
			} else {
				m.lrec.Unfix()
			}
		default: // anti, difference, anti-difference: matched class dropped
			m.lrec.Unfix()
		}
		first = false
		if err := m.advanceLeft(); err != nil {
			releaseGroup()
			return err
		}
	}
	releaseGroup()
	return nil
}

// Close implements Iterator.
func (m *MergeMatch) Close() error {
	if ok, err := m.closing("mergematch"); !ok {
		return err
	}
	m.releasePending()
	err := m.left.Close()
	if rerr := m.right.Close(); err == nil {
		err = rerr
	}
	if derr := m.comb.dispose(); err == nil {
		err = derr
	}
	return err
}

func (m *MergeMatch) abort() {
	m.releasePending()
	_ = m.left.Close()
	_ = m.right.Close()
	_ = m.comb.dispose()
}

func (m *MergeMatch) releasePending() {
	m.pending.release()
	if m.lok {
		m.lrec.Unfix()
		m.lok = false
	}
	if m.rok {
		m.rrec.Unfix()
		m.rok = false
	}
	if m.lsrc != nil {
		m.lsrc.Release()
		m.rsrc.Release()
		m.lsrc, m.rsrc = nil, nil
	}
}

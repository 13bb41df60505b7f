package record

import (
	"encoding/binary"
	"fmt"
)

// Zero returns the image of the record whose every field holds its zero
// value: the padding outer joins concatenate for a missing side.
func (s *Schema) Zero() []byte { return make([]byte, s.fixedLen) }

// tailLen checks an encoded record the way Decode does — fixed area
// present, variable-length end offsets ascending and within the image —
// and returns the length of its variable-length tail.
func (s *Schema) tailLen(data []byte) (int, error) {
	if len(data) < s.fixedLen {
		return 0, fmt.Errorf("record: %d bytes, need at least %d", len(data), s.fixedLen)
	}
	prev := 0
	for _, off := range s.varOffs {
		end := int(binary.LittleEndian.Uint32(data[off:]))
		if end < prev || s.fixedLen+end > len(data) {
			return 0, fmt.Errorf("record: corrupt var-length bounds [%d,%d) in %d-byte record",
				s.fixedLen+prev, s.fixedLen+end, len(data))
		}
		prev = end
	}
	return prev, nil
}

// ConcatSize checks the encoded records l (of schema ls) and r (of rs)
// and returns the size of their concatenation, the record of
// ls.Concat(rs) that ConcatInto builds.
func ConcatSize(ls *Schema, l []byte, rs *Schema, r []byte) (int, error) {
	lv, err := ls.tailLen(l)
	if err != nil {
		return 0, err
	}
	rv, err := rs.tailLen(r)
	if err != nil {
		return 0, err
	}
	return ls.fixedLen + rs.fixedLen + lv + rv, nil
}

// ConcatInto writes into dst the record of ls.Concat(rs) holding l's
// fields followed by r's, without decoding either: the fixed areas and
// the variable-length tails are copied, and r's end offsets are rebased
// past l's tail. dst must be exactly ConcatSize bytes, which also
// vouches for l and r; the result equals Encode of the two Decodes.
func ConcatInto(dst []byte, ls *Schema, l []byte, rs *Schema, r []byte) {
	lf, rf := ls.fixedLen, rs.fixedLen
	rv := 0
	if n := len(rs.varOffs); n > 0 {
		rv = int(binary.LittleEndian.Uint32(r[rs.varOffs[n-1]:]))
	}
	lv := len(dst) - lf - rf - rv
	copy(dst, l[:lf])
	copy(dst[lf:], r[:rf])
	copy(dst[lf+rf:], l[lf:lf+lv])
	copy(dst[lf+rf+lv:], r[rf:rf+rv])
	if lv > 0 {
		for _, off := range rs.varOffs {
			p := dst[lf+off:]
			binary.LittleEndian.PutUint32(p, binary.LittleEndian.Uint32(p)+uint32(lv))
		}
	}
	// Decode reads any non-zero byte as true and Encode writes 1.
	for _, off := range ls.boolOffs {
		if dst[off] != 0 {
			dst[off] = 1
		}
	}
	for _, off := range rs.boolOffs {
		if dst[lf+off] != 0 {
			dst[lf+off] = 1
		}
	}
}

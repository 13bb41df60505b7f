package record

import "encoding/binary"

// Zero returns the image of the record whose every field holds its zero
// value: the padding outer joins concatenate for a missing side.
func (s *Schema) Zero() []byte { return make([]byte, s.fixedLen) }

// tailLen returns the length of a checked record image's variable-length
// tail: the end offset of its last variable-length field.
func (s *Schema) tailLen(data []byte) int {
	if n := len(s.varOffs); n > 0 {
		return int(binary.LittleEndian.Uint32(data[s.varOffs[n-1]:]))
	}
	return 0
}

// ConcatSize returns the size of the concatenation of the checked records
// l (of schema ls) and r (of rs), the record of ls.Concat(rs) that
// ConcatInto builds.
func ConcatSize(ls *Schema, l []byte, rs *Schema, r []byte) int {
	return ls.fixedLen + rs.fixedLen + ls.tailLen(l) + rs.tailLen(r)
}

// ConcatInto writes into dst the record of ls.Concat(rs) holding l's
// fields followed by r's, without decoding either: the fixed areas and
// the variable-length tails are copied, and r's end offsets are rebased
// past l's tail. dst must be exactly ConcatSize bytes; the result equals
// Encode of the two Decodes.
func ConcatInto(dst []byte, ls *Schema, l []byte, rs *Schema, r []byte) {
	lf, rf, rv := ls.fixedLen, rs.fixedLen, rs.tailLen(r)
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

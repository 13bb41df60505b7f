package record

import (
	"encoding/binary"
	"fmt"
)

// SortSpec describes one ordering term: a field and a direction.
type SortSpec struct {
	Field int
	Desc  bool
}

// Key identifies the fields that form a comparison or hash key.
type Key []int

// Compare orders two encoded records of the same schema on the given
// ordering terms.
func (s *Schema) Compare(a, b []byte, spec []SortSpec) int {
	for _, t := range spec {
		c := s.CompareField(a, b, t.Field)
		if c != 0 {
			if t.Desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// CompareField orders two encoded records on a single field.
func (s *Schema) CompareField(a, b []byte, field int) int {
	switch s.fields[field].Type {
	case TInt:
		x, y := s.GetInt(a, field), s.GetInt(b, field)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	case TFloat:
		return compareFloats(s.GetFloat(a, field), s.GetFloat(b, field))
	case TBool:
		x, y := s.GetBool(a, field), s.GetBool(b, field)
		switch {
		case !x && y:
			return -1
		case x && !y:
			return 1
		}
		return 0
	default:
		return compareBytes(s.GetBytes(a, field), s.GetBytes(b, field))
	}
}

// CompareKeys orders record a's fields ka against record b's fields kb,
// pairwise. The key slices must have equal length. This is the form used
// by binary matching operators where the two inputs have different schemas.
func CompareKeys(sa *Schema, a []byte, ka Key, sb *Schema, b []byte, kb Key) int {
	for i := range ka {
		va, err := sa.Get(a, ka[i])
		if err != nil {
			panic(err)
		}
		vb, err := sb.Get(b, kb[i])
		if err != nil {
			panic(err)
		}
		if va.Kind.Fixed() != vb.Kind.Fixed() && va.Kind != vb.Kind {
			panic(fmt.Sprintf("record: comparing %s key field with %s", va.Kind, vb.Kind))
		}
		if c := CompareValues(va, vb); c != 0 {
			return c
		}
	}
	return 0
}

// FNV-1a, 64 bit: the constants of hash/fnv, folded in line so hashing a
// key makes no hash.Hash64 and no call per field.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return h
}

func fnvUint64(h, v uint64) uint64 {
	for i := 0; i < 64; i += 8 {
		h = (h ^ (v >> i & 0xff)) * fnvPrime64
	}
	return h
}

// Hash computes a 64-bit FNV-1a hash of the given key fields of an encoded
// record. Equal keys hash equally across schemas as long as the field
// values are equal.
func (s *Schema) Hash(data []byte, key Key) uint64 {
	h := uint64(fnvOffset64)
	for _, f := range key {
		switch s.fields[f].Type {
		case TInt:
			h = fnvUint64(h, uint64(s.GetInt(data, f)))
		case TFloat:
			// Hash the canonical integer value when the float is integral so
			// joins across int/float keys behave; otherwise hash the bits.
			h = fnvUint64(h, canonicalFloatBits(s.GetFloat(data, f)))
		case TBool:
			var b uint64
			if s.GetBool(data, f) {
				b = 1
			}
			h = (h ^ b) * fnvPrime64
		default:
			h = fnvBytes(h, s.GetBytes(data, f))
			h = (h ^ 0xff) * fnvPrime64 // terminator so ("a","b") != ("ab","")
		}
	}
	return h
}

func canonicalFloatBits(f float64) uint64 {
	if f == float64(int64(f)) {
		return uint64(int64(f))
	}
	return mathFloat64bits(f)
}

// KeyValues extracts the key fields of a record as copied values, for
// holding on to a key past the life of the record's pin.
func (s *Schema) KeyValues(data []byte, key Key) []Value {
	out := make([]Value, len(key))
	for i, f := range key {
		v, err := s.Get(data, f)
		if err != nil {
			panic(err)
		}
		out[i] = v.Copy()
	}
	return out
}

// AppendKey appends to dst a canonical rendering of the key fields of an
// encoded record, usable as a Go map key: two records render the same
// bytes exactly when their key fields are equal, and numeric values of
// equal magnitude render identically. Callers look groups up with
// m[string(buf)] over a reused buf, which does not allocate.
func (s *Schema) AppendKey(dst, data []byte, key Key) []byte {
	for _, f := range key {
		switch s.fields[f].Type {
		case TInt:
			dst = appendUint64(dst, 'i', uint64(s.GetInt(data, f)))
		case TFloat:
			dst = appendUint64(dst, 'f', canonicalFloatBits(s.GetFloat(data, f)))
		case TBool:
			if s.GetBool(data, f) {
				dst = append(dst, 'b', 1)
			} else {
				dst = append(dst, 'b', 0)
			}
		default:
			b := s.GetBytes(data, f)
			dst = append(dst, 's')
			dst = appendUint64(dst, 'l', uint64(len(b)))
			dst = append(dst, b...)
		}
	}
	return dst
}

func appendUint64(out []byte, tag byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(append(out, tag), v)
}

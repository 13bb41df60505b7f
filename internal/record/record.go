// Package record defines Volcano's data representation: typed schemas,
// the on-page record encoding, record identifiers (RIDs), and the
// comparison and hashing primitives used by support functions.
//
// Volcano's query processing modules are written without knowledge of the
// internal structure of data objects (paper, §3); all interpretation of
// record bytes is concentrated here and in package expr.
package record

import (
	"encoding/binary"
	"fmt"
)

// Type enumerates the field types supported by Volcano schemas.
type Type uint8

const (
	// TInt is a 64-bit signed integer field.
	TInt Type = iota
	// TFloat is a 64-bit IEEE-754 field.
	TFloat
	// TBool is a one-byte boolean field.
	TBool
	// TString is a variable-length UTF-8 string field.
	TString
	// TBytes is a variable-length raw byte field.
	TBytes
)

// String returns the lower-case name of the type.
func (t Type) String() string {
	switch t {
	case TInt:
		return "int"
	case TFloat:
		return "float"
	case TBool:
		return "bool"
	case TString:
		return "string"
	case TBytes:
		return "bytes"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Fixed reports whether values of the type occupy a fixed number of bytes
// in the record's fixed area.
func (t Type) Fixed() bool { return t == TInt || t == TFloat || t == TBool }

// fixedSize returns the number of bytes the type occupies in the fixed
// area of a record. Variable-length fields occupy a 4-byte offset.
func (t Type) fixedSize() int {
	switch t {
	case TInt, TFloat:
		return 8
	case TBool:
		return 1
	default:
		return 4 // cumulative end offset into the variable-length tail
	}
}

// Field describes one column of a schema.
type Field struct {
	Name string
	Type Type
}

// Schema describes the layout of records in a stream or stored file.
// A Schema is immutable after construction with NewSchema.
type Schema struct {
	fields []Field
	// offsets[i] is the byte offset of field i within the fixed area.
	offsets []int
	// fixedLen is the total length of the fixed area.
	fixedLen int
	// varOffs holds the fixed-area offsets of the variable-length fields'
	// end-offset slots, in field order; boolOffs those of the booleans.
	varOffs  []int
	boolOffs []int
	byName   map[string]int
}

// NewSchema builds a schema from the given fields. Field names must be
// unique and non-empty.
func NewSchema(fields ...Field) (*Schema, error) {
	s := &Schema{
		fields: append([]Field(nil), fields...),
		byName: make(map[string]int, len(fields)),
	}
	off := 0
	for i, f := range fields {
		if f.Name == "" {
			return nil, fmt.Errorf("record: field %d has empty name", i)
		}
		if _, dup := s.byName[f.Name]; dup {
			return nil, fmt.Errorf("record: duplicate field name %q", f.Name)
		}
		s.byName[f.Name] = i
		s.offsets = append(s.offsets, off)
		switch {
		case !f.Type.Fixed():
			s.varOffs = append(s.varOffs, off)
		case f.Type == TBool:
			s.boolOffs = append(s.boolOffs, off)
		}
		off += f.Type.fixedSize()
	}
	s.fixedLen = off
	return s, nil
}

// MustSchema is like NewSchema but panics on error. It is intended for
// tests, examples, and statically known schemas.
func MustSchema(fields ...Field) *Schema {
	s, err := NewSchema(fields...)
	if err != nil {
		panic(err)
	}
	return s
}

// NumFields returns the number of fields in the schema.
func (s *Schema) NumFields() int { return len(s.fields) }

// Field returns the descriptor of field i.
func (s *Schema) Field(i int) Field { return s.fields[i] }

// Fields returns a copy of the schema's field descriptors.
func (s *Schema) Fields() []Field { return append([]Field(nil), s.fields...) }

// Index returns the index of the named field, or -1 if absent.
func (s *Schema) Index(name string) int {
	i, ok := s.byName[name]
	if !ok {
		return -1
	}
	return i
}

// Concat returns a new schema consisting of s's fields followed by t's
// fields. Name collisions are resolved by prefixing the colliding right
// field with "r_". Used by join operators to describe composite outputs.
func (s *Schema) Concat(t *Schema) *Schema {
	fields := s.Fields()
	for _, f := range t.fields {
		name := f.Name
		if _, dup := s.byName[name]; dup {
			name = "r_" + name
		}
		fields = append(fields, Field{Name: name, Type: f.Type})
	}
	out, err := NewSchema(fields...)
	if err != nil {
		// Collisions like x and r_x both present; disambiguate with index.
		for i := range fields {
			fields[i].Name = fmt.Sprintf("f%d_%s", i, fields[i].Name)
		}
		out = MustSchema(fields...)
	}
	return out
}

// Equal reports whether two schemas have identical field names and types.
func (s *Schema) Equal(t *Schema) bool {
	if len(s.fields) != len(t.fields) {
		return false
	}
	for i := range s.fields {
		if s.fields[i] != t.fields[i] {
			return false
		}
	}
	return true
}

// String renders the schema as "(name:type, ...)".
func (s *Schema) String() string {
	out := "("
	for i, f := range s.fields {
		if i > 0 {
			out += ", "
		}
		out += f.Name + ":" + f.Type.String()
	}
	return out + ")"
}

// Encode serialises the given values according to the schema. The number
// and types of values must match the schema.
//
// Layout: a fixed area holding 8-byte integers/floats, 1-byte booleans and,
// for each variable-length field, the 4-byte cumulative end offset of its
// data within the variable-length tail that follows the fixed area.
func (s *Schema) Encode(vals []Value) ([]byte, error) {
	return s.AppendEncode(nil, vals)
}

// AppendEncode serialises vals like Encode but appends the record image
// to dst and returns the extended slice. Callers that reuse one buffer
// across records (batch sources, writers) encode without a per-record
// allocation once the buffer has grown to the working record size.
func (s *Schema) AppendEncode(dst []byte, vals []Value) ([]byte, error) {
	n, err := s.EncodedLen(vals)
	if err != nil {
		return nil, err
	}
	base := len(dst)
	if cap(dst) >= base+n {
		dst = dst[:base+n]
	} else {
		grown := make([]byte, base+n)
		copy(grown, dst)
		dst = grown
	}
	s.EncodeInto(dst[base:], vals)
	return dst, nil
}

// EncodedLen checks the number and types of vals against the schema and
// returns the size of their record image.
func (s *Schema) EncodedLen(vals []Value) (int, error) {
	if len(vals) != len(s.fields) {
		return 0, fmt.Errorf("record: encode: got %d values for %d fields", len(vals), len(s.fields))
	}
	n := s.fixedLen
	for i := range vals {
		t := s.fields[i].Type
		if err := vals[i].checkType(t); err != nil {
			return 0, fmt.Errorf("record: encode field %q: %w", s.fields[i].Name, err)
		}
		if !t.Fixed() {
			n += len(vals[i].S)
		}
	}
	return n, nil
}

// EncodeInto writes the record image of vals into dst, which must be
// exactly EncodedLen(vals) bytes — typically a slot reserved on a buffer
// page, so a new record is built where it will live. Every byte of dst is
// written.
func (s *Schema) EncodeInto(dst []byte, vals []Value) {
	varEnd := 0
	for i := range vals {
		v := &vals[i]
		off := s.offsets[i]
		switch s.fields[i].Type {
		case TInt:
			binary.LittleEndian.PutUint64(dst[off:], uint64(v.I))
		case TFloat:
			binary.LittleEndian.PutUint64(dst[off:], mathFloat64bits(v.F))
		case TBool:
			dst[off] = 0
			if v.B {
				dst[off] = 1
			}
		default:
			copy(dst[s.fixedLen+varEnd:], v.S)
			varEnd += len(v.S)
			binary.LittleEndian.PutUint32(dst[off:], uint32(varEnd))
		}
	}
}

// MustEncode is like Encode but panics on error.
func (s *Schema) MustEncode(vals ...Value) []byte {
	b, err := s.Encode(vals)
	if err != nil {
		panic(err)
	}
	return b
}

// Decode deserialises a record into a fresh value slice.
func (s *Schema) Decode(data []byte) ([]Value, error) {
	if len(data) < s.fixedLen {
		return nil, fmt.Errorf("record: decode: %d bytes, need at least %d", len(data), s.fixedLen)
	}
	vals := make([]Value, len(s.fields))
	for i := range s.fields {
		v, err := s.Get(data, i)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	return vals, nil
}

// Get extracts field i from an encoded record without decoding the rest.
// For variable-length fields the returned Value aliases data; callers that
// retain the value past the life of the record's buffer pin must copy it.
func (s *Schema) Get(data []byte, i int) (Value, error) {
	if i < 0 || i >= len(s.fields) {
		return Value{}, fmt.Errorf("record: field index %d out of range", i)
	}
	off := s.offsets[i]
	switch s.fields[i].Type {
	case TInt:
		if off+8 > len(data) {
			return Value{}, errTruncated(s, i, data)
		}
		return Int(int64(binary.LittleEndian.Uint64(data[off:]))), nil
	case TFloat:
		if off+8 > len(data) {
			return Value{}, errTruncated(s, i, data)
		}
		return Float(mathFloat64frombits(binary.LittleEndian.Uint64(data[off:]))), nil
	case TBool:
		if off+1 > len(data) {
			return Value{}, errTruncated(s, i, data)
		}
		return Bool(data[off] != 0), nil
	default:
		start, end, err := s.varBounds(data, i)
		if err != nil {
			return Value{}, err
		}
		v := Value{Kind: s.fields[i].Type, S: data[start:end:end]}
		return v, nil
	}
}

// GetInt extracts an integer field; it panics if the field is not TInt.
// It is the hot path used by compiled support functions.
func (s *Schema) GetInt(data []byte, i int) int64 {
	if s.fields[i].Type != TInt {
		panic(fmt.Sprintf("record: GetInt on %s field %q", s.fields[i].Type, s.fields[i].Name))
	}
	return int64(binary.LittleEndian.Uint64(data[s.offsets[i]:]))
}

// GetFloat extracts a float field; it panics if the field is not TFloat.
func (s *Schema) GetFloat(data []byte, i int) float64 {
	if s.fields[i].Type != TFloat {
		panic(fmt.Sprintf("record: GetFloat on %s field %q", s.fields[i].Type, s.fields[i].Name))
	}
	return mathFloat64frombits(binary.LittleEndian.Uint64(data[s.offsets[i]:]))
}

// GetBool extracts a boolean field; it panics if the field is not TBool.
func (s *Schema) GetBool(data []byte, i int) bool {
	if s.fields[i].Type != TBool {
		panic(fmt.Sprintf("record: GetBool on %s field %q", s.fields[i].Type, s.fields[i].Name))
	}
	return data[s.offsets[i]] != 0
}

// GetBytes extracts the raw bytes of a variable-length field; it panics if
// the field is fixed-width. The returned slice aliases data.
func (s *Schema) GetBytes(data []byte, i int) []byte {
	if s.fields[i].Type.Fixed() {
		panic(fmt.Sprintf("record: GetBytes on %s field %q", s.fields[i].Type, s.fields[i].Name))
	}
	start, end, err := s.varBounds(data, i)
	if err != nil {
		panic(err)
	}
	return data[start:end:end]
}

func (s *Schema) varBounds(data []byte, i int) (start, end int, err error) {
	off := s.offsets[i]
	if off+4 > len(data) {
		return 0, 0, errTruncated(s, i, data)
	}
	endOff := int(binary.LittleEndian.Uint32(data[off:]))
	startOff := 0
	// Find the previous variable-length field's end offset.
	for j := i - 1; j >= 0; j-- {
		if !s.fields[j].Type.Fixed() {
			startOff = int(binary.LittleEndian.Uint32(data[s.offsets[j]:]))
			break
		}
	}
	start = s.fixedLen + startOff
	end = s.fixedLen + endOff
	if startOff > endOff || end > len(data) {
		return 0, 0, fmt.Errorf("record: corrupt var-length bounds [%d,%d) for field %q in %d-byte record",
			start, end, s.fields[i].Name, len(data))
	}
	return start, end, nil
}

func errTruncated(s *Schema, i int, data []byte) error {
	return fmt.Errorf("record: truncated record (%d bytes) reading field %q", len(data), s.fields[i].Name)
}

package record

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		Field{"id", TInt},
		Field{"score", TFloat},
		Field{"name", TString},
		Field{"active", TBool},
		Field{"blob", TBytes},
	)
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	return s
}

func TestSchemaConstruction(t *testing.T) {
	s := testSchema(t)
	if got := s.NumFields(); got != 5 {
		t.Fatalf("NumFields = %d, want 5", got)
	}
	if s.Index("name") != 2 {
		t.Fatalf("Index(name) = %d, want 2", s.Index("name"))
	}
	if s.Index("missing") != -1 {
		t.Fatalf("Index(missing) = %d, want -1", s.Index("missing"))
	}
	// fixed: 8 (int) + 8 (float) + 4 (string off) + 1 (bool) + 4 (bytes off)
	if s.FixedLen() != 25 {
		t.Fatalf("FixedLen = %d, want 25", s.FixedLen())
	}
	if !strings.Contains(s.String(), "score:float") {
		t.Fatalf("String() = %q", s.String())
	}
}

func TestSchemaErrors(t *testing.T) {
	if _, err := NewSchema(Field{"", TInt}); err == nil {
		t.Fatal("empty field name accepted")
	}
	if _, err := NewSchema(Field{"a", TInt}, Field{"a", TFloat}); err == nil {
		t.Fatal("duplicate field name accepted")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := testSchema(t)
	vals := []Value{Int(42), Float(3.5), Str("hello"), Bool(true), Bytes([]byte{1, 2, 3})}
	data, err := s.Encode(vals)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := s.Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	for i := range vals {
		if !vals[i].Equal(got[i]) {
			t.Errorf("field %d: got %v, want %v", i, got[i], vals[i])
		}
	}
}

func TestEncodeEmptyVarFields(t *testing.T) {
	s := testSchema(t)
	data := s.MustEncode(Int(0), Float(0), Str(""), Bool(false), Bytes(nil))
	if len(data) != s.FixedLen() {
		t.Fatalf("len = %d, want %d", len(data), s.FixedLen())
	}
	if got := s.GetString(data, 2); got != "" {
		t.Fatalf("GetString = %q, want empty", got)
	}
	if got := s.GetBytes(data, 4); len(got) != 0 {
		t.Fatalf("GetBytes = %v, want empty", got)
	}
}

func TestEncodeTypeMismatch(t *testing.T) {
	s := testSchema(t)
	_, err := s.Encode([]Value{Str("no"), Float(0), Str(""), Bool(false), Bytes(nil)})
	if err == nil {
		t.Fatal("type mismatch accepted")
	}
	_, err = s.Encode([]Value{Int(1)})
	if err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestFieldAccessors(t *testing.T) {
	s := testSchema(t)
	data := s.MustEncode(Int(-7), Float(2.25), Str("abc"), Bool(true), Bytes([]byte("xyz")))
	if got := s.GetInt(data, 0); got != -7 {
		t.Errorf("GetInt = %d", got)
	}
	if got := s.GetFloat(data, 1); got != 2.25 {
		t.Errorf("GetFloat = %g", got)
	}
	if got := s.GetString(data, 2); got != "abc" {
		t.Errorf("GetString = %q", got)
	}
	if !s.GetBool(data, 3) {
		t.Error("GetBool = false")
	}
	if got := s.GetBytes(data, 4); !bytes.Equal(got, []byte("xyz")) {
		t.Errorf("GetBytes = %q", got)
	}
}

func TestAccessorPanicsOnWrongType(t *testing.T) {
	s := testSchema(t)
	data := s.MustEncode(Int(1), Float(1), Str("a"), Bool(false), Bytes(nil))
	mustPanic(t, func() { s.GetInt(data, 1) })
	mustPanic(t, func() { s.GetFloat(data, 0) })
	mustPanic(t, func() { s.GetBool(data, 0) })
	mustPanic(t, func() { s.GetBytes(data, 0) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestGetTruncated(t *testing.T) {
	s := testSchema(t)
	if _, err := s.Get([]byte{1, 2, 3}, 0); err == nil {
		t.Fatal("truncated record accepted")
	}
	if _, err := s.Decode(nil); err == nil {
		t.Fatal("nil record accepted")
	}
}

func TestCorruptVarBounds(t *testing.T) {
	s := MustSchema(Field{"a", TString})
	data := s.MustEncode(Str("hi"))
	data[0] = 200 // end offset beyond record
	if _, err := s.Get(data, 0); err == nil {
		t.Fatal("corrupt bounds accepted")
	}
}

func TestConcatAndProject(t *testing.T) {
	a := MustSchema(Field{"x", TInt}, Field{"y", TString})
	b := MustSchema(Field{"x", TInt}, Field{"z", TFloat})
	c := a.Concat(b)
	if c.NumFields() != 4 {
		t.Fatalf("Concat fields = %d", c.NumFields())
	}
	if c.Index("r_x") != 2 {
		t.Fatalf("collision rename failed: %v", c)
	}
	p := c.Project([]int{3, 0})
	if p.NumFields() != 2 || p.Field(0).Name != "z" || p.Field(1).Name != "x" {
		t.Fatalf("Project = %v", p)
	}
}

func TestSchemaEqual(t *testing.T) {
	a := MustSchema(Field{"x", TInt})
	b := MustSchema(Field{"x", TInt})
	c := MustSchema(Field{"x", TFloat})
	if !a.Equal(b) || a.Equal(c) {
		t.Fatal("Equal misbehaves")
	}
}

func TestCompareField(t *testing.T) {
	s := testSchema(t)
	lo := s.MustEncode(Int(1), Float(1.0), Str("a"), Bool(false), Bytes([]byte{0}))
	hi := s.MustEncode(Int(2), Float(2.0), Str("b"), Bool(true), Bytes([]byte{1}))
	for f := 0; f < 5; f++ {
		if c := s.CompareField(lo, hi, f); c != -1 {
			t.Errorf("field %d: Compare(lo,hi) = %d", f, c)
		}
		if c := s.CompareField(hi, lo, f); c != 1 {
			t.Errorf("field %d: Compare(hi,lo) = %d", f, c)
		}
		if c := s.CompareField(lo, lo, f); c != 0 {
			t.Errorf("field %d: Compare(lo,lo) = %d", f, c)
		}
	}
}

func TestCompareSortSpec(t *testing.T) {
	s := MustSchema(Field{"a", TInt}, Field{"b", TInt})
	r1 := s.MustEncode(Int(1), Int(9))
	r2 := s.MustEncode(Int(1), Int(5))
	spec := []SortSpec{{Field: 0}, {Field: 1, Desc: true}}
	if c := s.Compare(r1, r2, spec); c != -1 {
		t.Fatalf("Compare = %d, want -1 (desc on b)", c)
	}
}

func TestCompareNaN(t *testing.T) {
	s := MustSchema(Field{"f", TFloat})
	nan := s.MustEncode(Float(math.NaN()))
	one := s.MustEncode(Float(1))
	if s.CompareField(nan, one, 0) != -1 || s.CompareField(one, nan, 0) != 1 ||
		s.CompareField(nan, nan, 0) != 0 {
		t.Fatal("NaN ordering not total")
	}
}

func TestHashEqualKeysEqualHashes(t *testing.T) {
	s := testSchema(t)
	a := s.MustEncode(Int(10), Float(1.5), Str("k"), Bool(true), Bytes([]byte("v")))
	b := s.MustEncode(Int(10), Float(9.9), Str("k"), Bool(false), Bytes([]byte("w")))
	key := Key{0, 2}
	if s.Hash(a, key) != s.Hash(b, key) {
		t.Fatal("equal keys hash differently")
	}
	if s.Hash(a, Key{1}) == s.Hash(b, Key{1}) {
		t.Fatal("different float keys hash equally (suspicious)")
	}
}

func TestHashIntFloatCanonical(t *testing.T) {
	si := MustSchema(Field{"k", TInt})
	sf := MustSchema(Field{"k", TFloat})
	a := si.MustEncode(Int(7))
	b := sf.MustEncode(Float(7.0))
	if si.Hash(a, Key{0}) != sf.Hash(b, Key{0}) {
		t.Fatal("int 7 and float 7.0 hash differently")
	}
}

func TestHashStringBoundary(t *testing.T) {
	s := MustSchema(Field{"a", TString}, Field{"b", TString})
	x := s.MustEncode(Str("ab"), Str(""))
	y := s.MustEncode(Str("a"), Str("b"))
	if s.Hash(x, Key{0, 1}) == s.Hash(y, Key{0, 1}) {
		t.Fatal(`("ab","") and ("a","b") hash equally`)
	}
}

// TestHashIsFNV1a pins Hash to the byte stream and constants of
// hash/fnv's 64-bit FNV-1a: partitioning, and with it the order exchange
// delivers records in, depends on the exact values.
func TestHashIsFNV1a(t *testing.T) {
	s := testSchema(t)
	data := s.MustEncode(Int(-7), Float(2.5), Str("k\x00ey"), Bool(true), Bytes([]byte{0xff, 1}))
	ref := fnv.New64a()
	ref.Write(binary.LittleEndian.AppendUint64(nil, uint64(0xfffffffffffffff9))) // int -7
	ref.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(2.5)))
	ref.Write([]byte("k\x00ey\xff"))
	ref.Write([]byte{1})
	ref.Write([]byte{0xff, 1, 0xff})
	if got, want := s.Hash(data, Key{0, 1, 2, 3, 4}), ref.Sum64(); got != want {
		t.Fatalf("Hash = %#x, FNV-1a of the key bytes = %#x", got, want)
	}
	if got, want := s.Hash(data, nil), fnv.New64a().Sum64(); got != want {
		t.Fatalf("Hash of the empty key = %#x, want the FNV offset basis %#x", got, want)
	}
}

func TestZeroImage(t *testing.T) {
	s := testSchema(t)
	vals, err := s.Decode(s.Zero())
	if err != nil {
		t.Fatal(err)
	}
	want := []Value{Int(0), Float(0), {Kind: TString, S: []byte{}}, Bool(false), {Kind: TBytes, S: []byte{}}}
	for i := range want {
		if !vals[i].Equal(want[i]) || vals[i].Kind != want[i].Kind {
			t.Fatalf("field %d of the zero image = %v, want %v", i, vals[i], want[i])
		}
	}
}

func TestAppendKey(t *testing.T) {
	s := testSchema(t)
	a := s.MustEncode(Int(10), Float(1.5), Str("k"), Bool(true), Bytes([]byte("v")))
	b := s.MustEncode(Int(10), Float(2.5), Str("k"), Bool(true), Bytes([]byte("v")))
	k := Key{0, 2}
	if !bytes.Equal(s.AppendKey(nil, a, k), s.AppendKey(nil, b, k)) {
		t.Fatal("equal keys render differently")
	}
	if bytes.Equal(s.AppendKey(nil, a, Key{1}), s.AppendKey(nil, b, Key{1})) {
		t.Fatal("different keys render equally")
	}
}

func TestCompareKeysAcrossSchemas(t *testing.T) {
	a := MustSchema(Field{"x", TInt}, Field{"pad", TString})
	b := MustSchema(Field{"junk", TFloat}, Field{"y", TInt})
	ra := a.MustEncode(Int(5), Str("p"))
	rb := b.MustEncode(Float(0), Int(5))
	if c := CompareKeys(a, ra, Key{0}, b, rb, Key{1}); c != 0 {
		t.Fatalf("CompareKeys = %d, want 0", c)
	}
	rb2 := b.MustEncode(Float(0), Int(6))
	if c := CompareKeys(a, ra, Key{0}, b, rb2, Key{1}); c != -1 {
		t.Fatalf("CompareKeys = %d, want -1", c)
	}
}

func TestValueString(t *testing.T) {
	cases := map[string]Value{
		"42":    Int(42),
		"1.5":   Float(1.5),
		"true":  Bool(true),
		`"hi"`:  Str("hi"),
		"0x01":  Bytes([]byte{1}),
		"false": Bool(false),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("%v.String() = %q, want %q", v.Kind, got, want)
		}
	}
}

func TestValueCopyDoesNotAlias(t *testing.T) {
	orig := Str("abc")
	cp := orig.Copy()
	orig.S[0] = 'x'
	if string(cp.S) != "abc" {
		t.Fatal("Copy aliases original payload")
	}
}

func TestRIDString(t *testing.T) {
	r := RID{PageID: PageID{Dev: 2, Page: 7}, Slot: 3}
	if r.String() != "2:7.3" {
		t.Fatalf("RID.String = %q", r.String())
	}
	if !(RID{}).IsNil() || r.IsNil() {
		t.Fatal("IsNil misbehaves")
	}
	if !NilPage.IsNil() {
		t.Fatal("NilPage not nil")
	}
}

// Property: encode/decode round-trips for arbitrary values.
func TestQuickEncodeRoundTrip(t *testing.T) {
	s := MustSchema(
		Field{"i", TInt}, Field{"f", TFloat}, Field{"s", TString},
		Field{"b", TBool}, Field{"y", TBytes},
	)
	prop := func(i int64, f float64, str string, b bool, y []byte) bool {
		vals := []Value{Int(i), Float(f), Str(str), Bool(b), Bytes(y)}
		data, err := s.Encode(vals)
		if err != nil {
			return false
		}
		got, err := s.Decode(data)
		if err != nil {
			return false
		}
		for k := range vals {
			if vals[k].Kind == TFloat && math.IsNaN(vals[k].F) {
				if !math.IsNaN(got[k].F) {
					return false
				}
				continue
			}
			if !vals[k].Equal(got[k]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: CompareField is antisymmetric and reflexive on int records.
func TestQuickCompareAntisymmetric(t *testing.T) {
	s := MustSchema(Field{"i", TInt}, Field{"s", TString})
	prop := func(i1, i2 int64, s1, s2 string) bool {
		a := s.MustEncode(Int(i1), Str(s1))
		b := s.MustEncode(Int(i2), Str(s2))
		spec := []SortSpec{{Field: 0}, {Field: 1}}
		if s.Compare(a, b, spec) != -s.Compare(b, a, spec) {
			return false
		}
		return s.Compare(a, a, spec) == 0
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: hashing is consistent with key equality.
func TestQuickHashConsistency(t *testing.T) {
	s := MustSchema(Field{"k", TString}, Field{"v", TInt})
	prop := func(k string, v1, v2 int64) bool {
		a := s.MustEncode(Str(k), Int(v1))
		b := s.MustEncode(Str(k), Int(v2))
		return s.Hash(a, Key{0}) == s.Hash(b, Key{0})
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

package record

import (
	"bytes"
	"testing"
)

// fuzzSchema derives a schema of up to eight fields from fuzz bytes, one
// field per byte, so the fuzzer explores layouts as well as images.
func fuzzSchema(spec []byte) *Schema {
	if len(spec) > 8 {
		spec = spec[:8]
	}
	fields := make([]Field, len(spec))
	for i, b := range spec {
		fields[i] = Field{Name: string(rune('a' + i)), Type: Type(b % 5)}
	}
	return MustSchema(fields...)
}

// FuzzConcat holds the byte-level kernels to the decode-append-encode
// path they replace: over fuzzed schemas and record images, ConcatSize
// rejects exactly the images Decode rejects (an error, never a panic),
// ConcatInto builds byte for byte what Encode builds from the two value
// lists, and so does encoding those values in place.
func FuzzConcat(f *testing.F) {
	ls := []byte{byte(TInt), byte(TString), byte(TBool), byte(TBytes)}
	rs := []byte{byte(TString), byte(TFloat), byte(TString)}
	l := fuzzSchema(ls).MustEncode(Int(42), Str("hello"), Bool(true), Bytes([]byte{1, 2}))
	r := fuzzSchema(rs).MustEncode(Str(""), Float(2.5), Str("right"))
	f.Add(ls, l, rs, r)
	f.Add(ls, fuzzSchema(ls).Zero(), rs, r) // outer-join padding
	f.Add(ls, l, []byte{}, []byte{})
	f.Add([]byte{byte(TBool), byte(TBool)}, []byte{2, 0}, rs, r) // non-canonical true
	corrupt := append([]byte(nil), l...)
	corrupt[8] = 0xFF // var-length end offset out of range
	f.Add(ls, corrupt, rs, r)
	f.Add(ls, l[:10], rs, r)
	f.Fuzz(func(t *testing.T, lspec, l, rspec, r []byte) {
		ls, rs := fuzzSchema(lspec), fuzzSchema(rspec)
		lv, lerr := ls.Decode(l)
		rv, rerr := rs.Decode(r)
		n, err := ConcatSize(ls, l, rs, r)
		if lerr != nil || rerr != nil {
			if err == nil {
				t.Fatalf("ConcatSize accepted images Decode rejects (%v, %v)", lerr, rerr)
			}
			return
		}
		if err != nil {
			t.Fatalf("ConcatSize rejected images Decode accepts: %v", err)
		}
		out := ls.Concat(rs)
		vals := append(lv, rv...)
		want, err := out.Encode(vals)
		if err != nil {
			t.Fatal(err)
		}
		got := bytes.Repeat([]byte{0xAA}, n) // every byte must be written
		ConcatInto(got, ls, l, rs, r)
		if !bytes.Equal(got, want) {
			t.Fatalf("ConcatInto = %x, Encode(Decode, Decode) = %x", got, want)
		}
		n, err = out.EncodedLen(vals)
		if err != nil {
			t.Fatal(err)
		}
		got = bytes.Repeat([]byte{0xAA}, n)
		out.EncodeInto(got, vals)
		if !bytes.Equal(got, want) {
			t.Fatalf("EncodeInto = %x, Encode = %x", got, want)
		}
	})
}

// FuzzDecode feeds arbitrary bytes to the record decoder: corrupt
// records must produce errors, never panics or out-of-bounds reads.
func FuzzDecode(f *testing.F) {
	s := MustSchema(
		Field{"i", TInt}, Field{"s", TString}, Field{"b", TBool}, Field{"y", TBytes},
	)
	good := s.MustEncode(Int(42), Str("hello"), Bool(true), Bytes([]byte{1, 2}))
	f.Add(good)
	f.Add([]byte{})
	f.Add(make([]byte, 25))
	trunc := append([]byte(nil), good[:10]...)
	f.Add(trunc)
	corrupt := append([]byte(nil), good...)
	corrupt[8] = 0xFF // var-length end offset out of range
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, data []byte) {
		vals, err := s.Decode(data)
		if err != nil {
			return
		}
		// A successful decode must re-encode without error.
		if _, err := s.Encode(vals); err != nil {
			t.Fatalf("decoded values do not re-encode: %v", err)
		}
	})
}

// FuzzParseSpec checks the schema-spec parser never panics and that
// accepted specs round-trip.
func FuzzParseSpec(f *testing.F) {
	f.Add("a:int,b:string")
	f.Add("x:float")
	f.Add(":,::")
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseSpec(spec)
		if err != nil {
			return
		}
		back, err := ParseSpec(s.Spec())
		if err != nil || !back.Equal(s) {
			t.Fatalf("spec %q does not round-trip", spec)
		}
	})
}

package server

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/record"
)

// FuzzAppendJSONString holds the row writer's string escaper to
// encoding/json byte for byte: HTML-sensitive characters, control
// characters, invalid UTF-8 and the U+2028/U+2029 separators included.
func FuzzAppendJSONString(f *testing.F) {
	for _, s := range []string{
		"", "emp-42", `quote " and \ backslash`, "<script>&amp;</script>",
		"\x00\x01\b\f\n\r\t\x1f\x7f", "line sep end", "café 日本 \U0001F600",
		"\xff\xfe bad \xc3", "\xe2\x80", "\xed\xa0\x80",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, s []byte) {
		want, err := json.Marshal(string(s))
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("appendJSONString(%q) = %s, encoding/json gives %s", s, got, want)
		}
	})
}

var rowSchema = record.MustSchema(
	record.Field{Name: "id", Type: record.TInt},
	record.Field{Name: "pay", Type: record.TFloat},
	record.Field{Name: "na<me", Type: record.TString},
	record.Field{Name: "ok", Type: record.TBool},
	record.Field{Name: "blob", Type: record.TBytes},
)

// TestRowWriterMatchesEncodingJSON renders rows from their encoded images
// and requires each value to be what encoding/json makes of the decoded
// one (NaN and ±Inf, which JSON cannot carry, become null).
func TestRowWriterMatchesEncodingJSON(t *testing.T) {
	rw := newRowWriter(rowSchema)
	for _, row := range [][]record.Value{
		{record.Int(-7), record.Float(1234.5), record.Str("a<b>&\"c\"\n "), record.Bool(true), record.Bytes([]byte{0, 1, 0xff})},
		{record.Int(math.MaxInt64), record.Float(1e21), record.Str(""), record.Bool(false), record.Bytes([]byte{})},
		{record.Int(0), record.Float(math.NaN()), record.Str("\xff"), record.Bool(false), record.Bytes([]byte("xyz"))},
	} {
		line, err := rw.row(rowSchema.MustEncode(row...))
		if err != nil {
			t.Fatal(err)
		}
		pay := any(row[1].F)
		if math.IsNaN(row[1].F) {
			pay = nil
		}
		var want []byte
		for i, v := range []any{row[0].I, pay, string(row[2].S), row[3].B, row[4].S} {
			key, _ := json.Marshal(rowSchema.Field(i).Name)
			val, _ := json.Marshal(v)
			want = append(append(append(want, ','), append(key, ':')...), val...)
		}
		want = append(append([]byte{'{'}, want[1:]...), '}', '\n')
		if !bytes.Equal(line, want) {
			t.Fatalf("row = %s, want %s", line, want)
		}
	}
	if _, err := rw.row([]byte{1, 2, 3}); err == nil {
		t.Fatal("a truncated record rendered without error")
	}
}

func TestRowWriterZeroAlloc(t *testing.T) {
	rw := newRowWriter(rowSchema)
	data := rowSchema.MustEncode(record.Int(42), record.Float(3.25), record.Str("emp-42 <&>  "), record.Bool(true), record.Bytes([]byte("payload")))
	if _, err := rw.row(data); err != nil { // grow the buffer once
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() { _, _ = rw.row(data) }); n != 0 {
		t.Fatalf("rowWriter.row allocates %.0f times per row, want 0", n)
	}
}

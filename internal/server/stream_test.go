package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/core"
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

// rowSeeds are rowSchema rows for the row writer's tests and fuzz seeds.
var rowSeeds = [][]record.Value{
	{record.Int(-7), record.Float(1234.5), record.Str("a<b>&\"c\"\n "), record.Bool(true), record.Bytes([]byte{0, 1, 0xff})},
	{record.Int(math.MaxInt64), record.Float(1e21), record.Str(""), record.Bool(false), record.Bytes([]byte{})},
	{record.Int(0), record.Float(math.NaN()), record.Str("\xff"), record.Bool(false), record.Bytes([]byte("xyz"))},
	{record.Int(math.MinInt64), record.Float(math.Inf(-1)), record.Str("emp-42"), record.Bool(true), record.Bytes(nil)},
	{record.Int(1), record.Float(1234567), record.Str("é"), record.Bool(true), record.Bytes([]byte("payload"))},
}

// wantRow is the reference line of a decoded rowSchema row: each value as
// encoding/json writes it, except floats, which the stream writes in
// shortest 'g' form (1234567 is 1.234567e+06, where encoding/json writes
// no exponent) and NaN and ±Inf, which JSON cannot carry, as null.
func wantRow(row []record.Value) []byte {
	var want []byte
	for i, v := range row {
		var val []byte
		switch v.Kind {
		case record.TInt:
			val, _ = json.Marshal(v.I)
		case record.TFloat:
			val = []byte("null")
			if !math.IsNaN(v.F) && !math.IsInf(v.F, 0) {
				val = strconv.AppendFloat(nil, v.F, 'g', -1, 64)
			}
		case record.TString:
			val, _ = json.Marshal(string(v.S))
		case record.TBool:
			val, _ = json.Marshal(v.B)
		case record.TBytes:
			val, _ = json.Marshal(append([]byte{}, v.S...))
		}
		key, _ := json.Marshal(rowSchema.Field(i).Name)
		want = append(append(append(want, ','), append(key, ':')...), val...)
	}
	return append(append([]byte{'{'}, want[1:]...), '}', '\n')
}

// TestRowWriterMatchesEncodingJSON renders rows from their encoded images
// and requires each line to be the reference wantRow makes of the decoded
// values, appended after what the buffer already held.
func TestRowWriterMatchesEncodingJSON(t *testing.T) {
	rw := newRowWriter(rowSchema)
	for _, row := range rowSeeds {
		line, err := rw.row([]byte("held\n"), rowSchema.MustEncode(row...))
		if err != nil {
			t.Fatal(err)
		}
		if want := append([]byte("held\n"), wantRow(row)...); !bytes.Equal(line, want) {
			t.Fatalf("row = %s, want %s", line, want)
		}
	}
	if _, err := rw.row(nil, []byte{1, 2, 3}); err == nil {
		t.Fatal("a truncated record rendered without error")
	}
}

// FuzzRowWriter feeds arbitrary bytes to the row writer as a rowSchema
// record: it fails exactly when Schema.Decode does, with the error of the
// first field Schema.Get cannot read, never panics, and otherwise renders
// the reference line of the decoded values.
func FuzzRowWriter(f *testing.F) {
	for _, row := range rowSeeds {
		data := rowSchema.MustEncode(row...)
		f.Add(data)
		f.Add(data[:len(data)-1])
	}
	f.Add([]byte{1, 2, 3})
	rw := newRowWriter(rowSchema)
	f.Fuzz(func(t *testing.T, data []byte) {
		line, err := rw.row(nil, data)
		vals, derr := rowSchema.Decode(data)
		if (err != nil) != (derr != nil) {
			t.Fatalf("row error %v, Decode error %v", err, derr)
		}
		if err != nil {
			for i := 0; i < rowSchema.NumFields(); i++ {
				if _, gerr := rowSchema.Get(data, i); gerr != nil {
					if err.Error() != gerr.Error() {
						t.Fatalf("row error %q, Get of field %d says %q", err, i, gerr)
					}
					return
				}
			}
			t.Fatalf("row error %v where every field reads", err)
		}
		if want := wantRow(vals); !bytes.Equal(line, want) {
			t.Fatalf("row = %s, want %s", line, want)
		}
	})
}

func TestRowWriterZeroAlloc(t *testing.T) {
	rw := newRowWriter(rowSchema)
	data := rowSchema.MustEncode(record.Int(42), record.Float(3.25), record.Str("emp-42 <&>  "), record.Bool(true), record.Bytes([]byte("payload")))
	buf, err := rw.row(nil, data) // grow the buffer once
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() { buf, _ = rw.row(buf[:0], data) }); n != 0 {
		t.Fatalf("rowWriter.row allocates %.0f times per row, want 0", n)
	}
}

// writeCountingListener counts the Write calls made on the connections it
// accepts.
type writeCountingListener struct {
	net.Listener
	writes atomic.Int64
}

func (l *writeCountingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &writeCountingConn{Conn: c, writes: &l.writes}, nil
}

type writeCountingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c *writeCountingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestStreamWritesPerQuery serves a 25 000-row join, about 730 KB of
// NDJSON, and counts the writes its connection takes: the stream hands
// the socket buffers, not rows, so there is less than one write per 8 KiB
// of body.
func TestStreamWritesPerQuery(t *testing.T) {
	srv, _, _, _ := newTestServer(t, nil)
	ts := httptest.NewUnstartedServer(srv.Handler())
	l := &writeCountingListener{Listener: ts.Listener}
	ts.Listener = l
	ts.Start()
	defer ts.Close()
	res, err := postQuery(ts, "with p2 = scan pairs2 | filter d < 50\nscan pairs | join hash p2 on a = c")
	if err != nil {
		t.Fatal(err)
	}
	if res.trailer.Status != "ok" || res.rows != 25000 {
		t.Fatalf("trailer %+v, %d rows; want ok and 25000", res.trailer, res.rows)
	}
	if w := l.writes.Load(); w >= int64(len(res.body)/(8<<10)) {
		t.Fatalf("%d connection writes for %d bytes of body, want fewer than one per 8 KiB", w, len(res.body))
	}
}

// countingWriter is a flushable ResponseWriter that counts its writes and
// bytes.
type countingWriter struct {
	header        http.Header
	writes, bytes int
}

func (c *countingWriter) Header() http.Header { return c.header }
func (c *countingWriter) WriteHeader(int)     {}
func (c *countingWriter) Flush()              {}
func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	c.bytes += len(p)
	return len(p), nil
}

// BenchmarkRowStream measures the last mile of a served row, an encoded
// record in and NDJSON out through the query's row stream, into a writer
// that counts its writes. Full pulls leave the stream to write by bytes;
// short ones (a producer that trickles) make it write after every pull.
// Each reports ns/row, bytes/row and writes/row.
func BenchmarkRowStream(b *testing.B) {
	// scan_stream's projection: id, dept, salary * 1.1 as raised, name.
	scanStream := record.MustSchema(
		record.Field{Name: "id", Type: record.TInt},
		record.Field{Name: "dept", Type: record.TInt},
		record.Field{Name: "raised", Type: record.TFloat},
		record.Field{Name: "name", Type: record.TString},
	)
	for _, sc := range []struct {
		name   string
		schema *record.Schema
		rec    core.Rec
	}{
		{"scan_stream", scanStream, core.Rec{Data: scanStream.MustEncode(record.Int(31337), record.Int(3), record.Float(5373.170000000001), record.Str("emp-qz-31337"))}},
		{"rowSchema", rowSchema, core.Rec{Data: rowSchema.MustEncode(rowSeeds[0]...)}},
	} {
		for _, pull := range []struct {
			name  string
			n     int
			short bool
		}{{"full_pulls", core.DefaultBatchSize, false}, {"short_pulls", 8, true}} {
			b.Run(sc.name+"/"+pull.name, func(b *testing.B) {
				cw := &countingWriter{header: http.Header{}}
				st := newRowStream(cw, &queryRecord{}, sc.schema, 0)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 1; i <= b.N; i++ {
					if err := st.row(sc.rec); err != nil {
						b.Fatal(err)
					}
					if i%pull.n == 0 {
						_ = st.pulled(pull.short)
					}
				}
				st.end(trailer{Status: "ok", Rows: st.rows})
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/row")
				b.ReportMetric(float64(cw.bytes)/float64(b.N), "bytes/row")
				b.ReportMetric(float64(cw.writes)/float64(b.N), "writes/row")
			})
		}
	}
}

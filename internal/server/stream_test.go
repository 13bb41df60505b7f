package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/plan"
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
// values, appended after what the buffer already held. A truncated record
// never reaches the writer: Check, where records enter, rejects it.
func TestRowWriterMatchesEncodingJSON(t *testing.T) {
	rw := newRowWriter(rowSchema)
	for _, row := range rowSeeds {
		line := rw.row([]byte("held\n"), rowSchema.MustEncode(row...))
		if want := append([]byte("held\n"), wantRow(row)...); !bytes.Equal(line, want) {
			t.Fatalf("row = %s, want %s", line, want)
		}
	}
	if err := rowSchema.Check([]byte{1, 2, 3}); err == nil {
		t.Fatal("Check accepted a truncated record")
	}
}

// FuzzRowWriter feeds arbitrary bytes to the row writer as a rowSchema
// record, as the writer gets them: only images Check accepts, where
// records enter. Each renders the reference line of the decoded values.
func FuzzRowWriter(f *testing.F) {
	for _, row := range rowSeeds {
		data := rowSchema.MustEncode(row...)
		f.Add(data)
		f.Add(data[:len(data)-1])
	}
	f.Add([]byte{1, 2, 3})
	rw := newRowWriter(rowSchema)
	f.Fuzz(func(t *testing.T, data []byte) {
		if rowSchema.Check(data) != nil {
			return
		}
		vals, err := rowSchema.Decode(data)
		if err != nil {
			t.Fatalf("Decode rejects an image Check accepts: %v", err)
		}
		if line, want := rw.row(nil, data), wantRow(vals); !bytes.Equal(line, want) {
			t.Fatalf("row = %s, want %s", line, want)
		}
	})
}

func TestRowWriterZeroAlloc(t *testing.T) {
	rw := newRowWriter(rowSchema)
	data := rowSchema.MustEncode(record.Int(42), record.Float(3.25), record.Str("emp-42 <&>  "), record.Bool(true), record.Bytes([]byte("payload")))
	buf := rw.row(nil, data) // grow the buffer once
	if n := testing.AllocsPerRun(1000, func() { buf = rw.row(buf[:0], data) }); n != 0 {
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
				st := newRowStream(cw, nil, sc.schema, 0)
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

// TestServedCorruptRecord serves queries over a table holding one record
// cut short, one of them behind an exchange: each response's trailer
// carries the scan's error naming the file, and the next query on the
// same server answers correctly.
func TestServedCorruptRecord(t *testing.T) {
	_, w, ts, _ := newTestServer(t, nil)
	vol := w.cat.(plan.VolumeCatalog)[0]
	schema := record.MustSchema(record.Field{Name: "id", Type: record.TInt}, record.Field{Name: "name", Type: record.TString})
	for _, name := range []string{"bad", "bad.0", "bad.1"} {
		f := mustCreate(t, vol, name, schema)
		for i := 0; i < 50; i++ {
			data := schema.MustEncode(record.Int(int64(i)), record.Str(fmt.Sprint("row-", i)))
			if i == 30 && name != "bad.1" {
				data = data[:len(data)-2]
			}
			mustInsert(t, f, data)
		}
	}
	for _, q := range []struct{ script, batch string }{
		{"scan bad | filter name like 'r%'", ""},
		{"scan bad | project id, name", "1"},
		{"pscan bad 2 | exchange producers=2 | filter interpreted id > 1", ""},
	} {
		res, err := postQueryBatch(ts, q.script, q.batch)
		if err != nil {
			t.Fatalf("%q: %v", q.script, err)
		}
		if res.trailer.Status != "error" || !strings.Contains(res.trailer.Error, `filescan "bad`) {
			t.Fatalf("%q: trailer %+v, want the scan's error", q.script, res.trailer)
		}
		res, err = postQuery(ts, "scan emp | filter id < 3")
		if err != nil || res.trailer.Status != "ok" || res.rows != 3 {
			t.Fatalf("the query after %q: %+v, %d rows, %v", q.script, res.trailer, res.rows, err)
		}
	}
}

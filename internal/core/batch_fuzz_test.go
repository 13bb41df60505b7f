package core

import (
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/record"
	"repro/internal/storage/file"
)

// FuzzBatchDecode fuzzes the batch protocol's decode seam: a table of
// fuzzer-chosen size is scanned and filtered once record-at-a-time (batch
// size 1) and once in batches of a fuzzer-chosen size — so the final
// batch is usually partial — with one record image corrupted in place at
// a fuzzer-chosen position. Record decode and support-function evaluation
// at every batch boundary must agree with size 1 exactly: same rows in
// the same order, or an error at both sizes. Corruption keeps the
// image's length, and storage guarantees nothing of an image's shape: the
// scan checks each record against its schema (record.Schema.Check) and
// the accessors behind it trust that, so a flipped var-length bound must
// surface as the scan's error at both sizes, never a panic or a
// divergence.
func FuzzBatchDecode(f *testing.F) {
	f.Add(uint16(0), uint8(0), []byte(nil))
	f.Add(uint16(1), uint8(1), []byte("x"))
	f.Add(uint16(83), uint8(7), []byte("hello"))
	f.Add(uint16(100), uint8(83), []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(uint16(257), uint8(96), make([]byte, 40))

	schema := record.MustSchema(
		record.Field{Name: "v", Type: record.TInt},
		record.Field{Name: "s", Type: record.TString},
	)

	f.Fuzz(func(t *testing.T, n uint16, sizeByte uint8, raw []byte) {
		rows := int(n % 301)
		size := int(sizeByte%97) + 1
		env := newTestEnv(t, 256)
		tbl, err := env.base.Create("t", schema)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			tag := ""
			if len(raw) > 0 {
				tag = string(raw[i%len(raw)])
			}
			if _, err := tbl.Insert(schema.MustEncode(record.Int(int64(i)), record.Str(tag))); err != nil {
				t.Fatal(err)
			}
		}
		// Corrupt one record image in place: the scan hands it out like
		// any other record, and decode sees it at whatever batch offset
		// it lands on. XOR-ing a fuzzer-chosen byte can hit the int
		// payload (values differ, at both sizes equally) or a var-length
		// end offset (both sizes must fail decode identically).
		if len(raw) >= 2 {
			img := schema.MustEncode(record.Int(int64(rows)), record.Str(string(raw)))
			if len(img) <= file.MaxRecordLen {
				img[int(raw[0])%len(img)] ^= raw[len(raw)-1]
				if _, err := tbl.Insert(img); err != nil {
					t.Fatal(err)
				}
			}
		}

		build := func(size int) Iterator {
			sc, err := NewFileScan(tbl)
			if err != nil {
				t.Fatal(err)
			}
			flt, err := NewFilterExpr(env.Env.WithBatchSize(size), sc, "v % 3 <> 1", expr.Compiled)
			if err != nil {
				t.Fatal(err)
			}
			return flt
		}

		rowRows, rowErr := Collect(build(1), 1)
		batchRows, batchErr := Collect(build(size), size)
		if (rowErr == nil) != (batchErr == nil) {
			t.Fatalf("divergence: size 1 err=%v, size %d err=%v", rowErr, size, batchErr)
		}
		if rowErr != nil {
			env.checkNoPinLeak(t)
			return
		}
		if len(rowRows) != len(batchRows) {
			t.Fatalf("batch size 1 gave %d rows, batch size %d gave %d", len(rowRows), size, len(batchRows))
		}
		for i := range rowRows {
			if render(rowRows[i]) != render(batchRows[i]) {
				t.Fatalf("row %d: %q (batch size 1) vs %q (batch size %d)", i, render(rowRows[i]), render(batchRows[i]), size)
			}
		}

		// The batch predicate helper over the surviving images must agree
		// with per-record evaluation (partial final batch included).
		pred, err := expr.ParsePredicate("v % 3 <> 1", schema, expr.Interpreted)
		if err != nil {
			t.Fatal(err)
		}
		datas := make([][]byte, 0, len(rowRows))
		for _, r := range rowRows {
			data, err := schema.Encode(r)
			if err != nil {
				t.Fatal(err)
			}
			datas = append(datas, data)
		}
		for off := 0; off < len(datas); off += size {
			end := off + size
			if end > len(datas) {
				end = len(datas)
			}
			keep := make([]bool, end-off)
			nok, err := expr.PredicateBatch(pred, datas[off:end], keep)
			if err != nil {
				t.Fatalf("PredicateBatch at offset %d: %v", off, err)
			}
			if nok != end-off {
				t.Fatalf("PredicateBatch stopped at %d of %d", nok, end-off)
			}
			for i, k := range keep {
				if !k {
					t.Fatalf("batch predicate dropped surviving row %d", off+i)
				}
			}
		}
		env.checkNoPinLeak(t)
	})
}

// FuzzPageRecords flips fuzzer-chosen bytes of a stored page image —
// the next-page link, the slot directory and the record bytes — and runs
// a FileScan | filter | project over it in a fuzzer-chosen expression
// mode and batch size. The answer must be an error, where the storage
// scan or Decode of a record fails, or else exactly the reference rows
// computed from the decoded records; never a panic. The table is one
// page, so a link that is not 0 leads past the file: the scan must fail
// there rather than follow it.
func FuzzPageRecords(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0, 4, 0xff}, uint8(1))       // nslots
	f.Add([]byte{0, 8, 0x40}, uint8(7))       // slot 0's offset
	f.Add([]byte{0x0f, 0xf0, 0x20}, uint8(2)) // a record near the page end
	f.Add([]byte{0x0f, 0xf8, 0x01, 0x0f, 0xfc, 0x80}, uint8(83))
	f.Add([]byte{0, 0, 0x01}, uint8(5)) // the next-page link
	schema := record.MustSchema(
		record.Field{Name: "v", Type: record.TInt},
		record.Field{Name: "s", Type: record.TString},
		record.Field{Name: "y", Type: record.TBytes},
	)
	f.Fuzz(func(t *testing.T, flips []byte, knob uint8) {
		env := newTestEnv(t, 16)
		tbl, err := env.base.Create("t", schema)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ { // one page
			data := schema.MustEncode(record.Int(int64(i-5)), record.Str(strings.Repeat("s", i%4)), record.Bytes([]byte{byte(i)}))
			if _, err := tbl.Insert(data); err != nil {
				t.Fatal(err)
			}
		}
		fr, err := env.pool.Fix(tbl.FirstPage())
		if err != nil {
			t.Fatal(err)
		}
		img := fr.Data()
		for ; len(flips) >= 3; flips = flips[3:] {
			img[(int(flips[0])<<8|int(flips[1]))%len(img)] ^= flips[2]
		}
		env.pool.Unfix(fr, true)

		var want []string
		wantErr := false
		sc := tbl.NewScan()
		for {
			r, ok, err := sc.Next()
			if err != nil || !ok {
				wantErr = err != nil
				break
			}
			vals, err := schema.Decode(r.Data)
			r.Unfix()
			if err != nil {
				wantErr = true
				break
			}
			if vals[0].I%3 != 1 {
				want = append(want, render([]record.Value{record.Int(vals[0].I * 2), vals[1], vals[2]}))
			}
		}
		sc.Close()

		mode, size := expr.Compiled, int(knob%97)+1
		if knob&0x80 != 0 {
			mode = expr.Interpreted
		}
		scan, err := NewFileScan(tbl)
		if err != nil {
			t.Fatal(err)
		}
		e := env.Env.WithBatchSize(size)
		flt, err := NewFilterExpr(e, scan, "v % 3 <> 1", mode)
		if err != nil {
			t.Fatal(err)
		}
		proj, err := NewProjectExprs(e, flt, []string{"v * 2", "s", "y"}, []string{"w", "s", "y"}, mode)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := Collect(proj, size)
		env.checkNoPinLeak(t)
		if wantErr || err != nil {
			if !wantErr || err == nil {
				t.Fatalf("error %v, reference error %v", err, wantErr)
			}
			return
		}
		if len(rows) != len(want) {
			t.Fatalf("%d rows, reference %d", len(rows), len(want))
		}
		for i, row := range rows {
			if render(row) != want[i] {
				t.Fatalf("row %d: %q, reference %q", i, render(row), want[i])
			}
		}
	})
}

func render(row []record.Value) string {
	cells := make([]string, len(row))
	for i, v := range row {
		cells[i] = v.String()
	}
	return strings.Join(cells, "\x1f")
}

// TestFileScanCorruptLink bends the next-page link of a 3-page table's
// first page back to itself: NextBatch must return the storage scan's
// error with no pin left, at each batch size, rather than go round the
// cycle.
func TestFileScanCorruptLink(t *testing.T) {
	for _, size := range []int{1, 7, 83} {
		env := newTestEnv(t, 64)
		emp := env.makeEmp(t, "emp", 300, 8)
		if p := emp.Pages(); p != 3 {
			t.Fatalf("emp has %d pages, want 3", p)
		}
		first := emp.FirstPage()
		fr, err := env.pool.Fix(first)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(fr.Data(), first.Page)
		env.pool.Unfix(fr, true)

		sc := scanOf(t, emp)
		if err := sc.Open(); err != nil {
			t.Fatal(err)
		}
		b := NewBatch(size)
		for n := 0; err == nil && n <= 3*300; b.Release() {
			if err = sc.NextBatch(b); err == nil && b.Len() == 0 {
				t.Fatalf("batch=%d: the scan ended without an error", size)
			}
			n += b.Len()
		}
		if err == nil || !strings.Contains(err.Error(), "next-page link") {
			t.Fatalf("batch=%d: err = %v, want the scan's next-page link error", size, err)
		}
		env.checkNoPinLeak(t)
		if err := sc.Close(); err != nil {
			t.Fatal(err)
		}
		env.checkNoPinLeak(t)
	}
}

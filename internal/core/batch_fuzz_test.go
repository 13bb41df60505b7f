package core

import (
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
// image's length (storage guarantees records at least fixed-section
// sized; the hot-path accessors trust that), so a flipped var-length
// bound must surface as a clean Decode error, never a panic or a
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
			sc, err := NewFileScan(tbl, nil, false)
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

func render(row []record.Value) string {
	cells := make([]string, len(row))
	for i, v := range row {
		cells[i] = v.String()
	}
	return strings.Join(cells, "\x1f")
}

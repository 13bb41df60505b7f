package core

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/record"
)

// FuzzWireFrameDecode hammers the frame decoder with arbitrary bytes:
// truncated frames, oversized length prefixes and corrupt payloads must
// all surface as errors — never a panic, and never an allocation beyond
// the decoder's frame-size bound (enforced here with a small maxFrame so
// the fuzzer cannot "legitimately" allocate its way to an OOM). Each
// decoded record is checked against a schema, as the coordinator checks
// a cut's records: Check accepts exactly what Decode accepts.
func FuzzWireFrameDecode(f *testing.F) {
	schema := record.MustSchema(record.Field{Name: "v", Type: record.TInt}, record.Field{Name: "s", Type: record.TString})
	good := schema.MustEncode(record.Int(7), record.Str("seven"))
	f.Add(AppendWireFrame(nil, [][]byte{good, good[:len(good)-1], good[:5]}, WireFlagEOS))
	f.Add(AppendWireFrame(nil, [][]byte{[]byte("seed"), {}}, 0))
	f.Add(AppendWireFrame(nil, nil, WireFlagEOS))
	f.Add(AppendWireControl(nil, WireFlagEOS|WireFlagErr, []byte("boom")))
	f.Add(appendWireHeader(nil, 0, 1<<30))
	f.Add([]byte{0x56, 0x57, 0x46, 0x31, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	// A whole stream, as one response body carries it: two data frames,
	// then the EOS.
	f.Add(AppendWireFrame(AppendWireFrame(AppendWireFrame(nil, [][]byte{[]byte("a")}, 0), [][]byte{[]byte("bc"), {}}, 0), nil, WireFlagEOS))

	const maxFrame = 1 << 16
	f.Fuzz(func(t *testing.T, data []byte) {
		var fr WireFrame
		r := bytes.NewReader(data)
		for {
			err := ReadWireFrame(r, &fr, maxFrame)
			if err != nil {
				if err == io.EOF && r.Len() != 0 {
					t.Fatalf("clean EOF with %d bytes unread", r.Len())
				}
				break
			}
			// A decoded frame's windows must all land inside its arena.
			if cap(fr.buf) > maxFrame+64 {
				t.Fatalf("decoder over-allocated: cap=%d limit=%d", cap(fr.buf), maxFrame)
			}
			total := 0
			for _, rec := range fr.Recs {
				total += len(rec)
			}
			if total > len(fr.buf) {
				t.Fatalf("records (%dB) overrun arena (%dB)", total, len(fr.buf))
			}
			for _, rec := range fr.Recs {
				_, derr := schema.Decode(rec)
				if err := schema.Check(rec); (err == nil) != (derr == nil) {
					t.Fatalf("Check error %v, Decode error %v", err, derr)
				}
			}
		}
	})
}

package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// fixedClockTracer returns a tracer whose clock advances 1µs per reading
// from a fixed epoch, so output is byte-for-byte reproducible.
func fixedClockTracer() *Tracer {
	tr := NewWithCapacity(64)
	tr.epoch = time.Unix(0, 0)
	var fake int64
	tr.now = func() int64 { fake += 1000; return fake }
	return tr
}

// TestWriteChromeGolden pins the exact Chrome-trace JSON shape: key order,
// metadata records, microsecond formatting, flow binding, merged ordering.
func TestWriteChromeGolden(t *testing.T) {
	tr := fixedClockTracer()

	prod := tr.NewTrack("x1.producer0")
	cons := tr.NewTrack("x1.consumer0")
	remote := tr.NewTrack("netx1.producer0")

	prod.Instant("exchange", "producer-start")
	id := tr.NextFlowID()
	prod.FlowOut("packet", "push", id, "records", 83)
	cons.FlowIn("packet", "pop", id, "records", 83)
	epoch := tr.epoch
	prod.SpanAt1("exchange", "produce", epoch.Add(500*time.Nanosecond), 2500*time.Nanosecond, "records", 100)
	cons.SpanAt("flow", "consumer-wait", epoch.Add(1200*time.Nanosecond), 300*time.Nanosecond)
	remote.Instant1("wire", "wire-send", "bytes", 4096)
	cons.Instant("exchange", "eos")

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	// Whatever the golden says, the output must at minimum be valid JSON
	// with the expected wrapper.
	var doc struct {
		DisplayTimeUnit string                   `json:"displayTimeUnit"`
		TraceEvents     []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ns" || len(doc.TraceEvents) == 0 {
		t.Fatalf("unexpected wrapper: %+v", doc)
	}

	golden := filepath.Join("testdata", "chrome.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("Chrome JSON drifted from golden.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestWriteChromeNil pins the disabled tracer's empty skeleton.
func TestWriteChromeNil(t *testing.T) {
	var tr *Tracer
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{"displayTimeUnit":"ns","traceEvents":[]}` + "\n"
	if buf.String() != want {
		t.Errorf("nil trace = %q, want %q", buf.String(), want)
	}
	var doc map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil trace is not valid JSON: %v", err)
	}
}

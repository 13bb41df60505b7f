package core

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/record"
)

// gateScan blocks in NextBatch until its gate closes, then reports end of
// stream: it parks exchange producer goroutines somewhere a goroutine
// profile can observe them.
type gateScan struct{ gate chan struct{} }

func (g *gateScan) Open() error              { return nil }
func (g *gateScan) NextBatch(b *Batch) error { <-g.gate; b.Reset(); return nil }
func (g *gateScan) Close() error             { return nil }
func (g *gateScan) Schema() *record.Schema   { return intSchema }

// TestExchangeProducerPprofLabels pins the profiling attribution
// contract: when a build carries a query ID, every exchange producer
// goroutine runs under pprof labels query_id=<id> op=exchange-producer,
// so a CPU or goroutine profile of the process slices by query. The
// producers are parked on a gate mid-stream and the goroutine profile
// (debug=1, which prints label sets) must show the labels.
func TestExchangeProducerPprofLabels(t *testing.T) {
	const qid = "pprof-label-probe"
	gate := make(chan struct{})
	x, err := NewExchange(ExchangeConfig{
		Schema:      intSchema,
		Producers:   2,
		Consumers:   1,
		PacketSize:  4,
		QueryID:     qid,
		NewProducer: func(g int) (Iterator, error) { return &gateScan{gate: gate}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	c := x.Consumer(0)
	if err := c.Open(); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		var buf bytes.Buffer
		if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
			t.Fatal(err)
		}
		prof := buf.String()
		if strings.Contains(prof, `"query_id":"`+qid+`"`) &&
			strings.Contains(prof, `"op":"exchange-producer"`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine profile never showed producer labels for %s:\n%s", qid, prof)
		}
		time.Sleep(10 * time.Millisecond)
	}

	close(gate)
	if err := c.NextBatch(NewBatch(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

package server

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
)

// TestTrailerResources pins the tentpole surface: every successful
// trailer carries a resources block whose numbers are the query's own —
// rows and bytes streamed match what the client received, the scan paid
// buffer fixes, and a parallel plan shows exchange traffic.
func TestTrailerResources(t *testing.T) {
	_, _, ts, _ := newTestServer(t, nil)

	t.Run("serial", func(t *testing.T) {
		res, err := postQuery(ts, "scan emp | filter dept = 2 | sort salary desc")
		if err != nil {
			t.Fatal(err)
		}
		r := res.trailer.Resources
		if r == nil {
			t.Fatal("trailer has no resources block")
		}
		if r.RowsStreamed != int64(res.rows) {
			t.Errorf("rows_streamed = %d, client saw %d rows", r.RowsStreamed, res.rows)
		}
		if r.BytesStreamed <= 0 {
			t.Errorf("bytes_streamed = %d, want > 0", r.BytesStreamed)
		}
		if r.BufferFixes <= 0 {
			t.Errorf("buffer_fixes = %d, want > 0", r.BufferFixes)
		}
		if r.BufferFixes != r.BufferHits+r.BufferMisses {
			t.Errorf("fixes %d != hits %d + misses %d", r.BufferFixes, r.BufferHits, r.BufferMisses)
		}
		if r.CPUSeconds < 0 {
			t.Errorf("cpu_seconds = %v, want >= 0", r.CPUSeconds)
		}
		if r.ExchangePackets != 0 {
			t.Errorf("serial plan shows %d exchange packets, want 0", r.ExchangePackets)
		}
	})

	// Partition p holds the ids i ≡ p (mod empParts), so it meets
	// empDepts/empParts departments: the groups its partial aggregate sends.
	partialGroups := int64(empParts * (empDepts / empParts))
	for _, tc := range []struct {
		name, plan string
		records    int64
		why        string
	}{
		{"parallel", "pscan emp 4 | exchange producers=4 | agg group dept compute count, avg(salary)",
			empRows, "avg blocks the split: every scanned row crosses the port"},
		{"parallel-split", "pscan emp 4 | exchange producers=4 | agg group dept compute count",
			partialGroups, "the partial aggregates run below the exchange: only their groups cross"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := postQuery(ts, tc.plan)
			if err != nil {
				t.Fatal(err)
			}
			r := res.trailer.Resources
			if r == nil {
				t.Fatal("trailer has no resources block")
			}
			if r.ExchangePackets <= 0 || r.ExchangeRecords <= 0 {
				t.Errorf("exchange traffic = %d packets / %d records, want > 0 (producer-side work must attribute)",
					r.ExchangePackets, r.ExchangeRecords)
			}
			if r.ExchangeRecords != tc.records {
				t.Errorf("exchange_records = %d, want %d (%s)", r.ExchangeRecords, tc.records, tc.why)
			}
			if res.rows != empDepts {
				t.Errorf("rows = %d, want %d", res.rows, empDepts)
			}
		})
	}
}

// TestResourceReconciliation is the attribution soundness check: many
// concurrent queries each get a trailer resources block, and the
// per-query numbers must sum exactly to the process-global
// volcano_server_query_* accumulators those same queries settled into.
// Run under -race this also exercises every meter from multiple
// goroutines at once (producers, consumer, handler). The pool's own
// process-wide counters bound the meters from above: attribution never
// invents a fix the pool didn't perform.
func TestResourceReconciliation(t *testing.T) {
	s, w, ts, _ := newTestServer(t, nil)
	base := w.pool.Stats()

	plans := []string{
		"scan emp | filter dept = 2 | sort salary desc",
		"pscan emp 4 | exchange producers=4 | agg group dept compute count",
		"scan emp | filter id < 100",
	}
	const perPlan = 4
	var mu sync.Mutex
	var got []core.ResourceSnapshot
	var totalRows int64
	var wg sync.WaitGroup
	errs := make(chan error, len(plans)*perPlan)
	for _, p := range plans {
		for i := 0; i < perPlan; i++ {
			wg.Add(1)
			go func(p string) {
				defer wg.Done()
				res, err := postQuery(ts, p)
				if err != nil {
					errs <- err
					return
				}
				if res.trailer.Status != "ok" || res.trailer.Resources == nil {
					errs <- fmt.Errorf("query %q: status %s, resources %v", p, res.trailer.Status, res.trailer.Resources)
					return
				}
				mu.Lock()
				got = append(got, *res.trailer.Resources)
				totalRows += int64(res.rows)
				mu.Unlock()
			}(p)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var sum core.ResourceSnapshot
	var cpuNanos int64
	for _, r := range got {
		sum.BufferFixes += r.BufferFixes
		sum.BufferHits += r.BufferHits
		sum.BufferMisses += r.BufferMisses
		sum.DeviceReadBytes += r.DeviceReadBytes
		sum.DeviceWriteBytes += r.DeviceWriteBytes
		sum.RowsStreamed += r.RowsStreamed
		cpuNanos += int64(r.CPUSeconds * 1e9)
		if r.BufferFixes == 0 {
			t.Error("a query attributed zero buffer fixes")
		}
	}

	if v := s.m.queryBufFixes.Load(); v != sum.BufferFixes {
		t.Errorf("volcano_server_query_buffer_fixes_total = %d, per-query sum = %d", v, sum.BufferFixes)
	}
	if v := s.m.queryIOBytes.Load(); v != sum.IOBytes() {
		t.Errorf("volcano_server_query_io_bytes_total = %d, per-query sum = %d", v, sum.IOBytes())
	}
	// CPU settles through the same snapshot the trailer renders; allow
	// one nanosecond of float truncation per query.
	if v := s.m.queryCPUNanos.Load(); v < cpuNanos-int64(len(got)) || v > cpuNanos+int64(len(got)) {
		t.Errorf("volcano_server_query_cpu_seconds_total = %dns, per-query sum = %dns", v, cpuNanos)
	}
	if sum.RowsStreamed != totalRows {
		t.Errorf("rows_streamed sum = %d, clients saw %d", sum.RowsStreamed, totalRows)
	}
	if v := s.m.rowsOK.Value(); v != totalRows {
		t.Errorf("volcano_server_query_rows_total{outcome=ok} = %d, clients saw %d", v, totalRows)
	}

	// Upper bound: the pool performed at least every fix the meters
	// attributed (catalog and metadata fixes are process-global only).
	delta := w.pool.Stats().Sub(base)
	if delta.Fixes < sum.BufferFixes {
		t.Errorf("pool fixes delta %d < attributed sum %d: meters over-count", delta.Fixes, sum.BufferFixes)
	}
}

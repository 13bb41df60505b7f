package core

import (
	"strings"
	"sync"
	"testing"
)

// TestInstrumentCountsAndTimes drains a wrapped scan and checks the
// counters agree with the protocol at batch size 1: one open, rows + EOS
// NextBatch calls, one close, and non-negative accumulated times.
func TestInstrumentCountsAndTimes(t *testing.T) {
	env := newTestEnv(t, 256)
	f := env.makeInts(t, "t", 1, 2, 3, 4, 5)
	ins := Instrument(scanOf(t, f), "scan t")
	n, err := Drain(ins, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("drained %d rows", n)
	}
	st := ins.Stats().Snapshot()
	if st.Rows != 5 || st.NextCalls != 6 || st.Opens != 1 || st.Closes != 1 {
		t.Fatalf("counters: %+v", st)
	}
	if st.OpenTime < 0 || st.NextTime < 0 || st.CloseTime < 0 {
		t.Fatalf("negative time: %+v", st)
	}
	out := st.String()
	for _, want := range []string{"rows=5", "calls=6", "opens=1", "open=", "next=", "close="} {
		if !strings.Contains(out, want) {
			t.Fatalf("snapshot %q missing %q", out, want)
		}
	}
	if ins.Name() != "scan t" {
		t.Fatalf("name = %q", ins.Name())
	}
	if ins.inner == nil {
		t.Fatal("unwrap lost the inner iterator")
	}
}

// TestInstrumentWithSharedStats runs several wrapped instances over one
// OpStats concurrently — the shape parallel plan instances produce —
// and checks the counters aggregate without losing updates.
func TestInstrumentWithSharedStats(t *testing.T) {
	env := newTestEnv(t, 1024)
	const workers, rows = 4, 50
	files := env.makePartitionedInts(t, "p", workers*rows, workers)
	shared := &OpStats{}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc, err := NewFileScan(files[w])
			if err != nil {
				errs[w] = err
				return
			}
			_, errs[w] = Drain(InstrumentWith(sc, "pscan p", shared), 1)
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	st := shared.Snapshot()
	if st.Rows != workers*rows {
		t.Fatalf("shared rows = %d, want %d", st.Rows, workers*rows)
	}
	if st.Opens != workers || st.Closes != workers {
		t.Fatalf("opens=%d closes=%d, want %d each", st.Opens, st.Closes, workers)
	}
	if st.NextCalls != workers*(rows+1) {
		t.Fatalf("calls = %d, want %d", st.NextCalls, workers*(rows+1))
	}
}

package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "lat_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	failRatio := metricSpec{Name: "fail_ratio", Better: "lower"} // bound 0: any increase
	steady := func(v float64) []float64 { return []float64{v, v, v, v, v} }

	for _, tc := range []struct {
		name     string
		m        metricSpec
		old, cur []float64
		want     string
	}{
		{"latency down is good", lower, steady(10), steady(5), "ok"},
		{"latency up within the bound", lower, steady(10), steady(10.9), "ok"},
		{"latency up past the bound", lower, steady(10), steady(11.1), "worse"},
		{"throughput up is good", higher, steady(100), steady(200), "ok"},
		{"throughput down within the bound", higher, steady(100), steady(91), "ok"},
		{"throughput down past the bound", higher, steady(100), steady(89), "worse"},
		{"spread wider than the bound", lower, []float64{8, 9, 10, 11, 12}, steady(10), "unresolved"},
		{"worse even when noisy", lower, steady(10), []float64{10, 12, 14, 16, 18}, "worse"},
		{"no failures on either side", failRatio, steady(0), steady(0), "ok"},
		{"any failure where there was none", failRatio, steady(0), []float64{0, 0, 0.001, 0.001, 0.001}, "worse"},
		{"fewer failures", failRatio, steady(0.01), steady(0), "ok"},
	} {
		if got := judge(tc.m, tc.old, tc.cur).verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestSpreadMatchesPython pins spread to Python's
// statistics.quantiles(values, n=4), which the driver uses.
func TestSpreadMatchesPython(t *testing.T) {
	xs := []float64{12, 10, 11, 14, 13, 19, 15, 16, 18, 17}
	// quantiles -> [11.75, 14.5, 17.25]; median 14.5
	if got, want := spread(xs), (17.25-11.75)/14.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := mid(xs); got != 14.5 {
		t.Errorf("mid = %v, want 14.5", got)
	}
}

// TestReadRunsConcatenated reads a set as the README's loop makes it:
// indented results.json files one after another; traced runs are skipped.
func TestReadRunsConcatenated(t *testing.T) {
	var set []byte
	for i, trace := range []bool{false, true, false} {
		r := results{Workload: "point_mix", Trace: trace}
		r.Result.Attempted, r.Result.Failed = 10, i
		r.Result.Metrics = map[string]metricValue{"ops_per_s": {Value: float64(100 + i), Unit: "1/s"}}
		b, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		set = append(append(set, b...), '\n')
	}
	path := filepath.Join(t.TempDir(), "set.json")
	if err := os.WriteFile(path, set, 0o644); err != nil {
		t.Fatal(err)
	}
	runs, err := readRuns(path)
	if err != nil {
		t.Fatal(err)
	}
	got := runs["point_mix"]
	if !reflect.DeepEqual(got["ops_per_s"], []float64{100, 102}) || !reflect.DeepEqual(got["fail_ratio"], []float64{0, 0.2}) {
		t.Errorf("runs = %v", got)
	}
}

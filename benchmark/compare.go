package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// compareMain prints, per workload and end-to-end metric, whether NEW is
// ok, worse or unresolved against OLD, by the bounds of BENCHMARK.json. It
// fails when anything is worse.
func compareMain(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: benchmark compare OLD.json NEW.json")
	}
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	old, err := readRuns(args[0])
	if err != nil {
		return err
	}
	cur, err := readRuns(args[1])
	if err != nil {
		return err
	}
	// A failed operation is worse at any rate: the bound is zero.
	metrics := append([]metricSpec{{Name: "fail_ratio", Unit: "ratio", Better: "lower"}}, spec.EndToEnd...)
	worse := 0
	fmt.Printf("%-12s %-14s %12s %12s %8s %8s %7s  %s\n", "workload", "metric", "old median", "new median", "change", "spread", "bound", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range metrics {
			a, b := old[w.Name][m.Name], cur[w.Name][m.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v := judge(m, a, b)
			if v.verdict == "worse" {
				worse++
			}
			fmt.Printf("%-12s %-14s %12.6g %12.6g %+7.1f%% %7.1f%% %6.0f%%  %s\n",
				w.Name, m.Name, v.oldMedian, v.newMedian, 100*v.change, 100*v.spread, 100*m.Bound, v.verdict)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse than the bound allows", worse)
	}
	return nil
}

// readRuns groups the untraced runs of a set, the results.json files of
// its runs one after another: workload, then metric, then one value per run.
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := make(map[string]map[string][]float64)
	for dec := json.NewDecoder(f); ; {
		var r results
		if err := dec.Decode(&r); err == io.EOF {
			return runs, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace {
			continue
		}
		byMetric := runs[r.Workload]
		if byMetric == nil {
			byMetric = make(map[string][]float64)
			runs[r.Workload] = byMetric
		}
		for name, v := range r.Result.Metrics {
			byMetric[name] = append(byMetric[name], v.Value)
		}
		byMetric["fail_ratio"] = append(byMetric["fail_ratio"], ratio(float64(r.Result.Failed), float64(r.Result.Attempted)))
	}
}

type judgement struct {
	oldMedian, newMedian float64
	change               float64 // (new - old) / old, signed as measured
	spread               float64 // the wider interquartile range over its median
	verdict              string
}

// judge applies the regression rule: NEW is worse when its median is worse
// than OLD's, in the metric's own direction, by more than bound times OLD's
// median; with a bound of zero, by anything at all. Otherwise, when the
// runs of either side spread wider than the bound, the comparison cannot
// tell and is unresolved.
func judge(m metricSpec, old, cur []float64) judgement {
	j := judgement{oldMedian: mid(old), newMedian: mid(cur)}
	j.spread = math.Max(spread(old), spread(cur))
	delta := j.newMedian - j.oldMedian
	if j.oldMedian != 0 {
		j.change = delta / math.Abs(j.oldMedian)
	}
	if m.Better == "higher" {
		delta = -delta
	}
	switch {
	case delta > m.Bound*math.Abs(j.oldMedian):
		j.verdict = "worse"
	case j.spread > m.Bound && m.Bound > 0:
		j.verdict = "unresolved"
	default:
		j.verdict = "ok"
	}
	return j
}

// mid is the median with the mean of the two middle values for an even
// count, as Python's statistics.median.
func mid(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// spread is the distance between the first and third quartile as a share
// of the median, with the quartiles of Python's statistics.quantiles(n=4).
func spread(xs []float64) float64 {
	n := len(xs)
	med := mid(xs)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / math.Abs(med)
}

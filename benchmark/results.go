package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// specFile is read from the working directory, the root of the checkout.
// It is the one place where metric names, units, directions and bounds
// are written down; the program takes them from there.
const specFile = "BENCHMARK.json"

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec() (*benchSpec, error) {
	b, err := os.ReadFile(specFile)
	if err != nil {
		return nil, fmt.Errorf("%w (run from the root of the checkout)", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", specFile, err)
	}
	return &s, nil
}

func (s *benchSpec) unit(name string) (string, bool) {
	for _, list := range [][]metricSpec{s.EndToEnd, s.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit, true
			}
		}
	}
	return "", false
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the measured values of one run under the names and
// units of the spec.
type metricSet struct {
	spec   *benchSpec
	values map[string]metricValue
}

func (m metricSet) set(name string, v float64) {
	unit, ok := m.spec.unit(name)
	if !ok {
		panic("metric not in " + specFile + ": " + name) // a bug in this program
	}
	m.values[name] = metricValue{Value: v, Unit: unit}
}

// into stores exactly the metrics of want in the result and fails when one
// was not measured.
func (m metricSet) into(res *results, want []metricSpec) error {
	res.Result.Metrics = make(map[string]metricValue, len(want))
	for _, w := range want {
		v, ok := m.values[w.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", w.Name)
		}
		res.Result.Metrics[w.Name] = v
		res.order = append(res.order, w.Name)
	}
	res.Result.Correct = res.Result.Failed == 0
	return nil
}

// results is one run. Result is the object the contract wants as the last
// line of standard output; the rest goes to results.json beside it.
type results struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	// Samples is the number of verified operations the percentiles of the
	// measured (or traced) window were taken over.
	Samples int `json:"samples"`
	Result  struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	} `json:"result"`

	order  []string // metric names in spec order
	tracer *tracer
	pids   []int // every child process the run started
}

// count adds a window's operations, warm-up and ladder included: a wrong
// answer anywhere makes the run incorrect.
func (r *results) count(w *window) {
	r.Result.Attempted += w.attempted
	r.Result.Failed += w.failed
	if w.firstErr != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %d of %d operations failed, first: %v\n", w.failed, w.attempted, w.firstErr)
	}
}

func (r *results) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s seed %d: %d operations attempted, %d failed; percentiles over %d samples\n",
		r.Workload, r.Seed, r.Result.Attempted, r.Result.Failed, r.Samples)
	for _, name := range r.order {
		v := r.Result.Metrics[name]
		fmt.Fprintf(w, "%-40s %14.6g %s\n", name, v.Value, v.Unit)
	}
}

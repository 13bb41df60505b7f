package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"syscall"
	"testing"
)

// TestSmoke runs every workload once at toy scale, end to end: build, load,
// start, drive, verify, stop. It checks that BENCHMARK.json and the program
// agree on every name, that nothing fails, and that a run leaves neither
// processes nor files behind.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and starts servers")
	}
	// The program runs from the root of the checkout.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%s lists %d workloads, the program has %d", specFile, len(spec.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(w string, trace bool, want []metricSpec) {
		t.Helper()
		if !name.MatchString(w) {
			t.Errorf("workload name %q", w)
		}
		res, err := run(context.Background(), config{workload: w, seed: 7, seconds: 0.5, trace: trace, rows: 2000})
		if err != nil {
			t.Fatalf("%s trace=%v: %v", w, trace, err)
		}
		r := res.Result
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s trace=%v: correct=%v, %d of %d failed", w, trace, r.Correct, r.Failed, r.Attempted)
		}
		if len(r.Metrics) != len(want) {
			t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(r.Metrics), len(want))
		}
		for _, m := range want {
			if !name.MatchString(m.Name) {
				t.Errorf("metric name %q", m.Name)
			}
			if got, ok := r.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s trace=%v: metric %s: got %+v, present %v", w, trace, m.Name, got, ok)
			}
		}
		if len(res.pids) == 0 {
			t.Errorf("%s: no child process recorded", w)
		}
		for _, pid := range res.pids {
			if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
				t.Errorf("%s: child %d still there after the run: %v", w, pid, err)
			}
		}
		if left, _ := filepath.Glob(filepath.Join(buildDir, "run-*")); len(left) > 0 {
			t.Errorf("%s: temporary directories left behind: %v", w, left)
		}
	}
	for _, w := range spec.Workloads {
		check(w.Name, false, spec.EndToEnd)
	}
	// One traced run covers the ladder, the fleet and the probes.
	check("dist_agg", true, spec.PerLayer)
}

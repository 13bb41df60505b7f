package bench

import (
	"strings"
	"testing"
)

func TestSmokeT1(t *testing.T) {
	r, err := RunT1(20000)
	if err != nil {
		t.Fatal(err)
	}
	r.Print(testWriter{t})
	if !r.InlineSlowerThanDirect() {
		t.Log("warning: inline not slower than direct (timing noise)")
	}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) { w.t.Log(string(p)); return len(p), nil }

func TestRunPassAnalyzeBreakdown(t *testing.T) {
	res, err := RunPass(PassConfig{
		Records: 2000, Stages: 3,
		FlowControl: true, Slack: 2,
		Analyze: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// One line for the sink, one per exchange boundary, one for the pool.
	for _, want := range []string{
		"sink: rows=2000",
		"exchange stage 1:", "exchange stage 2:", "exchange stage 3:",
		"records=2000", "stall=", "wait=",
		"buffer: fixes=",
	} {
		if !strings.Contains(res.Breakdown, want) {
			t.Fatalf("breakdown missing %q:\n%s", want, res.Breakdown)
		}
	}
	// The uninstrumented path must not carry a breakdown.
	plain, err := RunPass(PassConfig{Records: 500, Stages: 1})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Breakdown != "" {
		t.Fatalf("unexpected breakdown on uninstrumented run:\n%s", plain.Breakdown)
	}
}

func TestSmokeFig2Point(t *testing.T) {
	p, err := RunFig2aPoint(20000, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(p.Elapsed)
}

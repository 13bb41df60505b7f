package bench

import (
	"fmt"
	"os"
	"testing"
	"time"
)

func TestSmokeAblations(t *testing.T) {
	type run struct {
		name string
		f    func() (*Ablation, error)
	}
	runs := []run{
		{"A1", func() (*Ablation, error) { return AblationFlowControl(5000) }},
		{"A2", func() (*Ablation, error) { return AblationForkScheme(8, time.Millisecond) }},
		{"A3", func() (*Ablation, error) { return AblationInline(5000) }},
		{"A4", func() (*Ablation, error) { return AblationPartitioning(5000) }},
		{"A5", func() (*Ablation, error) { return AblationBroadcast(3000) }},
		{"A6", func() (*Ablation, error) { return AblationMatch(2000) }},
		{"A7", func() (*Ablation, error) { return AblationDivision(300, 10, 3) }},
		{"A8", func() (*Ablation, error) { return AblationSupportFunctions(10000) }},
		{"A9", func() (*Ablation, error) { return AblationBufferLocking(5000, 4) }},
		{"A10", func() (*Ablation, error) { return AblationParallelSort(10000, 4) }},
	}
	for _, r := range runs {
		a, err := r.f()
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		a.Print(os.Stderr)
		switch r.name {
		case "A4":
			for _, l := range a.Lines {
				if n := countIn(t, l, "%d records delivered"); n != 5000 {
					t.Errorf("A4 %s delivered %d records, want 5000", l.Name, n)
				}
			}
		case "A5":
			part, bcast := countIn(t, a.Lines[0], "%d records delivered"), countIn(t, a.Lines[1], "%d records delivered")
			if part != 3000 || bcast != 3*part {
				t.Errorf("A5 delivered %d partitioned and %d broadcast, want 3000 and 3×", part, bcast)
			}
		case "A9":
			for _, l := range a.Lines {
				if n := countIn(t, l, "%d records scanned"); n != 4*5000 {
					t.Errorf("A9 %s scanned %d records, want %d", l.Name, n, 4*5000)
				}
			}
		}
	}
}

// countIn reads the count a line's Extra starts with.
func countIn(t *testing.T, l Line, format string) int {
	t.Helper()
	var n int
	if _, err := fmt.Sscanf(l.Extra, format, &n); err != nil {
		t.Fatalf("%s: %q does not read as %q: %v", l.Name, l.Extra, format, err)
	}
	return n
}

// TestSmokeSharedNothing holds A11 to its shape: the wire carries
// ⌈records/83⌉ frames, the last of them EOS; the latency link pays its
// latency at least once per frame; and shared memory beats the ideal
// link, which beats the latency link. Wall-clock ranking on a shared
// machine is noisy, so it gets three runs to show.
func TestSmokeSharedNothing(t *testing.T) {
	const records, lat = 5000, 500 * time.Microsecond
	const frames = (records + 82) / 83
	for run := 1; ; run++ {
		a, err := AblationSharedNothing(records, lat)
		if err != nil {
			t.Fatal(err)
		}
		a.Print(os.Stderr)
		if len(a.Lines) != 3 {
			t.Fatalf("%d rows, want 3", len(a.Lines))
		}
		mem, ideal, slow := a.Lines[0], a.Lines[1], a.Lines[2]
		for _, l := range []Line{ideal, slow} {
			var n int
			if _, err := fmt.Sscanf(l.Extra, "%d frames", &n); err != nil || n != frames {
				t.Fatalf("%s: %q, want %d frames", l.Name, l.Extra, frames)
			}
		}
		if floor := frames * lat; slow.Elapsed < floor {
			t.Fatalf("latency link took %v, under its %d frames × %v = %v", slow.Elapsed, frames, lat, floor)
		}
		if mem.Elapsed < ideal.Elapsed && ideal.Elapsed < slow.Elapsed {
			return
		}
		if run == 3 {
			t.Fatalf("ranking broken: shared memory %v, ideal link %v, latency link %v",
				mem.Elapsed, ideal.Elapsed, slow.Elapsed)
		}
	}
}

func TestSmokeRunGeneration(t *testing.T) {
	a, err := AblationRunGeneration(20000, 256)
	if err != nil {
		t.Fatal(err)
	}
	a.Print(os.Stderr)
}

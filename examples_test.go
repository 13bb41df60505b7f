package repro_test

import (
	"os/exec"
	"testing"
)

// TestExamplesRun runs every program under examples/. Each one checks
// its own row counts and pin balance and exits non-zero on a violation,
// so a clean exit is the assertion.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go tool; skipped under -short")
	}
	for _, name := range []string{"quickstart", "parallel_join"} {
		t.Run(name, func(t *testing.T) {
			out, err := exec.Command("go", "run", "./examples/"+name).CombinedOutput()
			if err != nil {
				t.Fatalf("go run ./examples/%s: %v\n%s", name, err, out)
			}
		})
	}
}

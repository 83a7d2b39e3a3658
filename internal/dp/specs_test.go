package dp_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pipemap/internal/core"
	"pipemap/internal/dp"
)

// TestSolverMatchesReferenceOnSpecs checks the Solver against the plain
// recurrence on the four committed specs at P=64 (threestage's own is 32),
// under the three option sets: every budget's period, bit for bit.
func TestSolverMatchesReferenceOnSpecs(t *testing.T) {
	if testing.Short() {
		t.Skip("the dense reference tables take tens of MB at P=64")
	}
	for _, name := range []string{"radar64", "ffthist256", "stereo128", "threestage"} {
		f, err := os.Open(filepath.Join("..", "..", "specs", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		c, pl, err := core.ParseChainSpec(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pl.Procs = 64
		for i, opt := range dp.ReferenceOptions {
			dp.CheckAgainstReference(t, fmt.Sprintf("%s options %d", name, i), c, pl, opt)
		}
	}
}

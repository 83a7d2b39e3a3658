package tradeoff_test

import (
	"os"
	"path/filepath"
	"testing"

	"pipemap/internal/core"
	"pipemap/internal/tradeoff"
)

// TestFrontierMatchesExhaustiveOnSpecs runs the exhaustive check on the
// four committed specs at P=32, with and without replication: the cost
// models the repository ships, on twice the processors the fuzz target
// enumerates.
func TestFrontierMatchesExhaustiveOnSpecs(t *testing.T) {
	if testing.Short() {
		t.Skip("enumerates about 10^5 mappings per spec")
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
		pl.Procs = 32
		tradeoff.CheckAgainstExhaustive(t, name, c, pl, tradeoff.Options{})
		tradeoff.CheckAgainstExhaustive(t, name+" without replication", c, pl, tradeoff.Options{DisableReplication: true})
	}
}

package core

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"pipemap/internal/dp"
)

// TestSolverArenaBound pins the compact layer layout of dp.Solver: building
// the solver for the committed radar and FFT-Hist specs (P=64) allocates at
// most 4 MB. A dense (P+1)^3 slab per layer needs 44 MB and 26 MB on these
// specs, so a dense layout coming back fails here. The bound lives in this
// package because dp's tests cannot import the spec parser.
func TestSolverArenaBound(t *testing.T) {
	const bound = 4 << 20
	for _, name := range []string{"radar64", "ffthist256"} {
		f, err := os.Open(filepath.Join("..", "..", "specs", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		c, pl, err := ParseChainSpec(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := dp.NewSolver(c, pl, dp.Options{})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: NewSolver: %v", name, err)
		}
		runtime.KeepAlive(s)
		if got := after.TotalAlloc - before.TotalAlloc; got > bound {
			t.Errorf("%s: NewSolver allocated %.1f MB, want <= %.0f MB", name, float64(got)/(1<<20), float64(bound)/(1<<20))
		}
	}
}

package core

import (
	"runtime"
	"testing"

	"pipemap/internal/dp"
)

// TestSolverArenaBound pins the compact layer layout of dp.Solver: building
// the solver for each committed spec allocates at most its bound. Each
// layer stores only its reachable (pt-pcur, pcur, class) triangle, and
// each edge's transfer costs only their rows of the read grid: NewSolver
// allocates 0.46 MB (radar64), 0.44 MB (ffthist256), 11.8 MB (stereo128)
// and 0.09 MB (threestage, P=32); with a dense (P+1)^2 transfer table per
// edge it was 0.55, 0.50, 11.8 and 0.11 MB. A full (P+1)^2 * |E| square
// per layer allocates 1.30 MB (radar64), 1.26 MB (ffthist256), 25.2 MB
// (stereo128) and 0.26 MB (threestage), and fails every bound. The bounds
// live in this package because dp's tests cannot import the spec parser.
func TestSolverArenaBound(t *testing.T) {
	const mb = 1 << 20
	bounds := map[string]float64{
		"radar64":    0.75 * mb,
		"ffthist256": 0.75 * mb,
		"stereo128":  14 * mb,
		"threestage": 0.15 * mb,
	}
	for _, name := range specNames {
		c, pl := loadSpec(t, name)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := dp.NewSolver(c, pl, dp.Options{})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: NewSolver: %v", name, err)
		}
		runtime.KeepAlive(s)
		got := float64(after.TotalAlloc - before.TotalAlloc)
		t.Logf("%s: NewSolver allocated %.3f MB", name, got/mb)
		if got > bounds[name] {
			t.Errorf("%s: NewSolver allocated %.2f MB, want <= %.2f MB", name, got/mb, bounds[name]/mb)
		}
	}
}

package core

import (
	"runtime"
	"testing"

	"pipemap/internal/dp"
	"pipemap/internal/model"
)

// allocated returns the bytes f allocates on the heap.
func allocated(f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc - before.TotalAlloc)
}

// TestSolverArenaBound pins what a DP solve allocates on each committed
// spec: a capped cold dp.MapChain, and a NewSolver plus its Solve, which a
// retained solver keeps. A layer stores only the (row, class) runs its
// transitions write, and each edge's transfer costs only their rows of the
// read grid; a capped solve's runs hold only its targets' windows, the
// processor counts that can still beat its incumbent. The capped solve
// allocates 0.27 MB (radar64), 0.04 MB (ffthist256), 0.39 MB (stereo128)
// and 0.02 MB (threestage, P=32), and the retained one 0.61, 0.27, 0.89
// and 0.07 MB. Runs over every count of their row, with the incumbent
// first set after the seed close layer, allocated 0.56, 0.08, 0.48 and
// 0.03 MB capped, which fails every capped bound; storing every layer's
// whole (row, pcur, class) triangle allocated 0.66, 0.45, 11.9 and 0.10 MB
// capped and 0.70, 0.52, 12.1 and 0.12 MB retained, which fails every
// bound but radar64's retained one (radar64 reaches 72% of its triangle).
// stereo128's capped solve at P=256, whose triangles took 765 MB, now
// allocates 4.7 MB. The bounds live in this package because dp's tests
// cannot import the spec parser.
func TestSolverArenaBound(t *testing.T) {
	const mb = 1 << 20
	bounds := map[string][2]float64{ // capped, retained
		"radar64":    {0.35 * mb, 0.75 * mb},
		"ffthist256": {0.06 * mb, 0.35 * mb},
		"stereo128":  {0.5 * mb, 1.1 * mb},
		"threestage": {0.03 * mb, 0.1 * mb},
	}
	check := func(name, what string, bound float64, solve func(c *model.Chain, pl model.Platform) error) {
		t.Helper()
		c, pl := loadSpec(t, name)
		var err error
		got := allocated(func() { err = solve(c, pl) })
		if err != nil {
			t.Fatalf("%s: %s: %v", name, what, err)
		}
		t.Logf("%s: %s allocated %.3f MB", name, what, got/mb)
		if got > bound {
			t.Errorf("%s: %s allocated %.2f MB, want <= %.2f MB", name, what, got/mb, bound/mb)
		}
	}
	capped := func(c *model.Chain, pl model.Platform) error {
		_, err := dp.MapChain(c, pl, dp.Options{})
		return err
	}
	retained := func(c *model.Chain, pl model.Platform) error {
		s, err := dp.NewSolver(c, pl, dp.Options{})
		if err == nil {
			_, err = s.Solve()
		}
		runtime.KeepAlive(s)
		return err
	}
	for _, name := range specNames {
		check(name, "capped MapChain", bounds[name][0], capped)
		check(name, "NewSolver+Solve", bounds[name][1], retained)
	}
	check("stereo128", "capped MapChain at P=256", 6*mb, func(c *model.Chain, pl model.Platform) error {
		pl.Procs = 256
		return capped(c, pl)
	})
}

package dp

import (
	"math/rand"
	"reflect"
	"testing"

	"pipemap/internal/model"
	"pipemap/internal/testutil"
)

// checkFrontier asserts that every budget's frontier entry deep-equals a
// fresh MapChain of c on that many processors, and that the budgets a
// fresh solve cannot map are exactly the empty entries.
func checkFrontier(t *testing.T, seed int64, what string, fr []model.Mapping, c *model.Chain, pl model.Platform, opt Options) {
	t.Helper()
	if len(fr) != pl.Procs+1 {
		t.Fatalf("seed %d %s: frontier has %d entries, want %d", seed, what, len(fr), pl.Procs+1)
	}
	if fr[0].Modules != nil {
		t.Fatalf("seed %d %s: budget 0 mapped to %v", seed, what, &fr[0])
	}
	for b := 1; b <= pl.Procs; b++ {
		got := fr[b]
		if got.Chain != c {
			t.Fatalf("seed %d %s budget %d: frontier mapping carries another chain", seed, what, b)
		}
		fresh, err := MapChain(c, model.Platform{Procs: b, MemPerProc: pl.MemPerProc}, opt)
		if (err != nil) != (got.Modules == nil) {
			t.Fatalf("seed %d %s budget %d: fresh err=%v, frontier %v", seed, what, b, err, &got)
		}
		if err != nil {
			continue
		}
		if !reflect.DeepEqual(got.Modules, fresh.Modules) {
			t.Fatalf("seed %d %s budget %d: frontier diverges from a fresh solve\nfrontier: %v\nfresh:    %v",
				seed, what, b, &got, &fresh)
		}
	}
}

// checkFrontierMatchesFresh solves one random instance, checks its
// frontier, then moves some task costs, re-solves incrementally and checks
// the frontier of the re-solved tables too.
func checkFrontierMatchesFresh(t *testing.T, seed int64) {
	t.Helper()
	checkFrontierWith(t, seed, Options{})
}

// checkFrontierWith is checkFrontierMatchesFresh on a solver built with
// base's DisableClustering; DisableReplication is drawn from the seed.
func checkFrontierWith(t *testing.T, seed int64, base Options) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	procs := 2 + rng.Intn(23) // 2..24
	c, pl := testutil.RandChain(rng, diffConfig, procs)
	opt := base
	opt.DisableReplication = rng.Intn(4) == 0

	s, err := NewSolver(c, pl, opt)
	if err != nil {
		t.Fatalf("seed %d: NewSolver: %v", seed, err)
	}
	if _, err := s.Frontier(); err == nil {
		t.Fatalf("seed %d: frontier of an unsolved solver succeeded", seed)
	}
	if _, err := s.Solve(); err != nil {
		// No budget up to P maps the chain, so none below it does either.
		for b := 1; b <= pl.Procs; b++ {
			if _, err := MapChain(c, model.Platform{Procs: b, MemPerProc: pl.MemPerProc}, opt); err == nil {
				t.Fatalf("seed %d: P=%d infeasible but budget %d maps", seed, pl.Procs, b)
			}
		}
		return
	}
	fr, err := s.Frontier()
	if err != nil {
		t.Fatalf("seed %d: Frontier: %v", seed, err)
	}
	checkFrontier(t, seed, "fresh", fr, c, pl, opt)

	k := c.Len()
	factors := make([]float64, k)
	for i := range factors {
		factors[i] = 1
	}
	changed := perturbStep(rng, 3, k)
	for _, i := range changed {
		factors[i] = 0.5 + 1.5*rng.Float64()
	}
	pc := scaledChain(c, factors)
	if _, err := s.Resolve(pc, changed); err != nil {
		t.Fatalf("seed %d: Resolve: %v", seed, err)
	}
	fr, err = s.Frontier()
	if err != nil {
		t.Fatalf("seed %d: Frontier after Resolve: %v", seed, err)
	}
	checkFrontier(t, seed, "incremental", fr, pc, pl, opt)
}

// FuzzFrontierMatchesFresh is the differential fuzz target for the
// per-budget frontier: on a random chain and P, every budget's entry must
// deep-equal a fresh MapChain at that budget, after a fresh solve and
// after an incremental re-solve, and infeasible budgets must fail on both
// sides. Run with `go test -fuzz FuzzFrontierMatchesFresh ./internal/dp`.
func FuzzFrontierMatchesFresh(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 7, 42, 1995, 65536, -1, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkFrontierMatchesFresh(t, seed)
	})
}

// TestFrontierMatchesFreshTable is the deterministic companion: a fixed
// batch of seeds replayed on every plain `go test`.
func TestFrontierMatchesFreshTable(t *testing.T) {
	n := int64(150)
	if testing.Short() {
		n = 20
	}
	for seed := int64(0); seed < n; seed++ {
		checkFrontierMatchesFresh(t, seed)
	}
}

// TestFrontierMatchesFreshNoClustering checks the frontier of solvers
// restricted to one module per task, fresh and after a Resolve, against a
// fresh clustering-off MapChain at every budget.
func TestFrontierMatchesFreshNoClustering(t *testing.T) {
	n := int64(150)
	if testing.Short() {
		n = 20
	}
	for seed := int64(0); seed < n; seed++ {
		checkFrontierWith(t, seed, Options{DisableClustering: true})
	}
}

// TestFrontierSharesWinners pins the sharing contract: budgets with the
// same optimal mapping share one module slice, and reading the frontier
// leaves the solver's own answer untouched.
func TestFrontierSharesWinners(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c, pl := testutil.RandChain(rng, testutil.RandChainConfig{MinTasks: 3, MaxTasks: 3, MaxMinProcs: 2}, 16)
	s, err := NewSolver(c, pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	want := append([]model.Module(nil), m.Modules...)
	fr, err := s.Frontier()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fr[pl.Procs].Modules, want) {
		t.Fatalf("frontier at P = %v, solve returned %v", &fr[pl.Procs], &m)
	}
	if !reflect.DeepEqual(m.Modules, want) {
		t.Fatal("Frontier overwrote the solve's mapping")
	}
	shared := 0
	for b := 2; b <= pl.Procs; b++ {
		x, y := fr[b-1].Modules, fr[b].Modules
		if x == nil || !reflect.DeepEqual(x, y) {
			continue
		}
		if &x[0] != &y[0] {
			t.Fatalf("budgets %d and %d have equal mappings in separate slices", b-1, b)
		}
		shared++
	}
	if shared == 0 {
		t.Fatal("no two budgets share a winner; the instance does not exercise sharing")
	}
}

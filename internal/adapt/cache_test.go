package adapt

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"pipemap/internal/core"
	"pipemap/internal/model"
	"pipemap/internal/obs/live"
	"pipemap/internal/testutil"
)

// cacheChain is a three-task replicable chain small enough that
// core.AutoAlgorithm routes it to DP.
func cacheChain(scale []float64) (*model.Chain, model.Platform) {
	mk := func(i int, c2 float64) model.Task {
		exec := model.CostFunc(model.PolyExec{C2: c2})
		if scale != nil && scale[i] != 1 {
			exec = model.ScaleCost{F: exec, K: scale[i]}
		}
		return model.Task{Name: string(rune('a' + i)), Exec: exec, Replicable: true}
	}
	chain := &model.Chain{
		Tasks: []model.Task{mk(0, 6), mk(1, 3), mk(2, 2)},
		ICom:  []model.CostFunc{model.ZeroExec(), model.ZeroExec()},
		ECom:  []model.CommFunc{model.ZeroComm(), model.ZeroComm()},
	}
	return chain, model.Platform{Procs: 8, MemPerProc: 1}
}

// freshSolve is the uncached reference every cache result must equal:
// core.Map under Auto.
func freshSolve(chain *model.Chain, pl model.Platform) (core.Result, error) {
	return core.Map(core.Request{Chain: chain, Platform: pl})
}

// resolve hashes (chain, pl) and solves it through sc at its cap, as the
// controller does while no processor is lost.
func resolve(sc *SolveCache, chain *model.Chain, pl model.Platform) (core.Result, string, error) {
	sig, key := CanonicalKeys(chain, pl)
	return sc.Solve(chain, pl, sig, key, pl.Procs)
}

// sameResult reports whether a cached result is a fresh one's to the bit,
// re-anchored on chain.
func sameResult(got, fresh core.Result, chain *model.Chain) bool {
	return reflect.DeepEqual(got.Mapping.Modules, fresh.Mapping.Modules) &&
		got.Throughput == fresh.Throughput && got.Latency == fresh.Latency &&
		got.Algorithm == fresh.Algorithm && got.Mapping.Chain == chain
}

// TestSolveCacheMemoHit: the same canonical instance must return the
// identical mapping without re-solving — the solve counters stay put and
// the hit counter moves.
func TestSolveCacheMemoHit(t *testing.T) {
	sc := NewSolveCache()
	chainA, pl := cacheChain(nil)
	first, path, err := resolve(sc, chainA, pl)
	if err != nil {
		t.Fatal(err)
	}
	if path != PathFullDP {
		t.Fatalf("first solve path %q, want %q", path, PathFullDP)
	}
	solvesAfterFirst := sc.Stats().FullSolves + sc.Stats().IncrementalSolves

	// A freshly materialized but bit-identical chain: pointer differs,
	// costs do not.
	chainB, _ := cacheChain(nil)
	second, path, err := resolve(sc, chainB, pl)
	if err != nil {
		t.Fatal(err)
	}
	if path != PathMemo {
		t.Fatalf("repeat solve path %q, want %q", path, PathMemo)
	}
	st := sc.Stats()
	if got := st.FullSolves + st.IncrementalSolves; got != solvesAfterFirst {
		t.Errorf("memo hit ran a solve: %d solves, want %d", got, solvesAfterFirst)
	}
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", st.Hits, st.Misses)
	}
	if !reflect.DeepEqual(first.Mapping.Modules, second.Mapping.Modules) {
		t.Errorf("memo returned a different mapping:\nfirst:  %v\nsecond: %v",
			&first.Mapping, &second.Mapping)
	}
	if first.Throughput != second.Throughput || first.Algorithm != second.Algorithm {
		t.Errorf("memo changed result metadata: %+v vs %+v", first, second)
	}
	if second.Mapping.Chain != chainB {
		t.Error("memo hit did not re-anchor the mapping on the caller's chain")
	}
}

// TestSolveCachePerturbationMisses: any cost change that reaches the cache
// (i.e. above the controller's epsilon gate, which drops sub-epsilon moves
// before they get here) must miss and re-solve incrementally, bit-identical
// to a fresh solve.
func TestSolveCachePerturbationMisses(t *testing.T) {
	sc := NewSolveCache()
	chain, pl := cacheChain(nil)
	if _, _, err := resolve(sc, chain, pl); err != nil {
		t.Fatal(err)
	}
	// Perturb one task by 0.1% — tiny, but applied, so the hash must move.
	pert, _ := cacheChain([]float64{1, 1.001, 1})
	got, path, err := resolve(sc, pert, pl)
	if err != nil {
		t.Fatal(err)
	}
	if path != PathIncremental {
		t.Fatalf("perturbed solve path %q, want %q", path, PathIncremental)
	}
	st := sc.Stats()
	if st.Hits != 0 || st.Misses != 2 || st.IncrementalSolves != 1 {
		t.Errorf("stats after perturbation = %+v", st)
	}
	fresh, err2 := freshSolve(pert, pl)
	if err2 != nil {
		t.Fatal(err2)
	}
	if !reflect.DeepEqual(got.Mapping.Modules, fresh.Mapping.Modules) {
		t.Errorf("incremental result diverged from fresh re-solve:\nincremental: %v\nfresh:       %v",
			&got.Mapping, &fresh.Mapping)
	}
	if got.Throughput != fresh.Throughput {
		t.Errorf("throughput diverged: %v vs %v", got.Throughput, fresh.Throughput)
	}
}

// TestSolveCacheNameInsensitive: two specs differing only in task names
// canonicalize to the same hash and share memo entries.
func TestSolveCacheNameInsensitive(t *testing.T) {
	sc := NewSolveCache()
	chain, pl := cacheChain(nil)
	if _, _, err := resolve(sc, chain, pl); err != nil {
		t.Fatal(err)
	}
	renamed, _ := cacheChain(nil)
	for i := range renamed.Tasks {
		renamed.Tasks[i].Name = "stage-" + string(rune('x'+i))
	}
	_, path, err := resolve(sc, renamed, pl)
	if err != nil {
		t.Fatal(err)
	}
	if path != PathMemo {
		t.Errorf("renamed spec path %q, want %q: task names leaked into the canonical hash", path, PathMemo)
	}
}

// TestSolveCacheStructuralInvalidation: a platform change is a different
// instance — the memo and solver are discarded, and the invalidation is
// counted.
func TestSolveCacheStructuralInvalidation(t *testing.T) {
	sc := NewSolveCache()
	chain, pl := cacheChain(nil)
	if _, _, err := resolve(sc, chain, pl); err != nil {
		t.Fatal(err)
	}
	small := pl
	small.Procs = 6
	_, path, err := resolve(sc, chain, small)
	if err != nil {
		t.Fatal(err)
	}
	if path != PathFullDP {
		t.Errorf("post-invalidation path %q, want %q", path, PathFullDP)
	}
	if st := sc.Stats(); st.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", st.Invalidations)
	}
	// And back: the old entries are gone, so this is a miss, not a stale
	// hit against the 6-processor platform.
	res, _, err := resolve(sc, chain, pl)
	if err != nil {
		t.Fatal(err)
	}
	fresh, _ := freshSolve(chain, pl)
	if !reflect.DeepEqual(res.Mapping.Modules, fresh.Mapping.Modules) {
		t.Errorf("post-invalidation result wrong: %v vs fresh %v", &res.Mapping, &fresh.Mapping)
	}
}

// TestSolveCacheGreedyPath reads a cap core.AutoAlgorithm routes to
// greedy (k=4 on 96 processors, P^4 k^3 = 5.4e9) at budgets on both sides
// of the Auto threshold: each equals a fresh core.Map at the budget
// (greedy at 95 and 96, DP at 94 and below), solves once, and is a memo
// hit when read again. The cap's table holds no frontier, so no budget is
// read from it.
func TestSolveCacheGreedyPath(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	chain, pl := testutil.RandChain(rng,
		testutil.RandChainConfig{MinTasks: 4, MaxTasks: 4}, 96)
	if core.AutoAlgorithm(4, 95) != core.Greedy || core.AutoAlgorithm(4, 94) != core.DP {
		t.Fatal("the Auto threshold for 4 tasks no longer lies between 94 and 95 processors")
	}
	sc := NewSolveCache()
	sig, key := CanonicalKeys(chain, pl)
	budgets := []int{96, 95, 94, 40, 7}
	for round := 0; round < 2; round++ {
		for _, b := range budgets {
			got, path, err := sc.Solve(chain, pl, sig, key, b)
			if err != nil {
				t.Fatalf("budget %d: %v", b, err)
			}
			fresh, err := freshSolve(chain, model.Platform{Procs: b, MemPerProc: pl.MemPerProc})
			if err != nil {
				t.Fatal(err)
			}
			want := PathMemo
			if round == 0 {
				want = PathFullDP
				if fresh.Algorithm == core.Greedy {
					want = PathGreedy
				}
			}
			if path != want {
				t.Errorf("round %d budget %d: path %q, want %q", round, b, path, want)
			}
			if !sameResult(got, fresh, chain) {
				t.Errorf("round %d budget %d: cache %v (%v), fresh core.Map %v (%v)",
					round, b, &got.Mapping, got.Algorithm, &fresh.Mapping, fresh.Algorithm)
			}
		}
	}
	if st := sc.Stats(); st.FullSolves != int64(len(budgets)) || st.IncrementalSolves != 0 ||
		st.Hits != int64(len(budgets)) || st.Invalidations != 0 {
		t.Errorf("stats %+v, want one cold solve and one hit per budget", st)
	}
}

// TestSolveCacheRandomWalkMatchesFresh drives random perturbation walks
// through the cache and checks every returned result — memo, incremental,
// or full — against an uncached solve.
func TestSolveCacheRandomWalkMatchesFresh(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sc := NewSolveCache()
		scale := []float64{1, 1, 1}
		for step := 0; step < 8; step++ {
			// Perturb a random subset (possibly none, possibly revisiting a
			// previous state so the memo gets genuine hits).
			for i := range scale {
				switch rng.Intn(4) {
				case 0:
					scale[i] = 1 + float64(rng.Intn(5))*0.25
				case 1:
					scale[i] = 1
				}
			}
			chain, pl := cacheChain(scale)
			got, _, err := resolve(sc, chain, pl)
			fresh, freshErr := freshSolve(chain, pl)
			if (err == nil) != (freshErr == nil) {
				t.Fatalf("seed %d step %d: error disagreement: cache=%v fresh=%v", seed, step, err, freshErr)
			}
			if err != nil {
				continue
			}
			if !reflect.DeepEqual(got.Mapping.Modules, fresh.Mapping.Modules) {
				t.Fatalf("seed %d step %d (scale %v): cache diverged\ncache: %v\nfresh: %v",
					seed, step, scale, &got.Mapping, &fresh.Mapping)
			}
			if got.Throughput != fresh.Throughput {
				t.Fatalf("seed %d step %d: throughput diverged: %v vs %v",
					seed, step, got.Throughput, fresh.Throughput)
			}
		}
	}
}

// TestControllerUnchangedTicksHitMemo: a controller fed observations that
// move no beliefs must route every re-solve after the first through the
// memo — the epsilon dead-band keeps the chain bit-identical and the cache
// recognizes it.
func TestControllerUnchangedTicksHitMemo(t *testing.T) {
	chain, pl := cacheChain(nil)
	initial := model.Mapping{Chain: chain, Modules: []model.Module{
		{Lo: 0, Hi: 3, Procs: 8, Replicas: 1},
	}}
	if err := initial.Validate(pl); err != nil {
		t.Fatal(err)
	}
	c, err := NewController(Config{Chain: chain, Platform: pl, Initial: initial})
	if err != nil {
		t.Fatal(err)
	}
	first := c.Step(Observation{Throughput: 0.5})
	if first.SolvePath == PathMemo {
		t.Fatalf("first cycle solve path %q: nothing to hit yet", first.SolvePath)
	}
	for i := 0; i < 3; i++ {
		d := c.Step(Observation{Throughput: 0.5})
		if d.SolvePath != PathMemo {
			t.Fatalf("cycle %d solve path %q, want %q (no beliefs moved)", d.Cycle, d.SolvePath, PathMemo)
		}
		if d.ChangedTasks != 0 {
			t.Errorf("cycle %d reports %d changed tasks, want 0", d.Cycle, d.ChangedTasks)
		}
	}
	st := c.Status()
	if st.Memo == nil || st.Memo.Hits < 3 {
		t.Errorf("controller status memo stats = %+v, want >= 3 hits", st.Memo)
	}
}

// TestSolveCacheConcurrent hammers one shared cache from many goroutines
// mixing repeated and perturbed instances; run under -race this pins the
// locking of the shared solver and memo map. Every result is checked
// against a fresh solve of its own instance.
func TestSolveCacheConcurrent(t *testing.T) {
	sc := NewSolveCache()
	scales := [][]float64{
		nil,
		{1.5, 1, 1},
		{1, 1.5, 1},
		{1, 1, 1.5},
	}
	type want struct {
		modules    []model.Module
		throughput float64
	}
	wants := make([]want, len(scales))
	for i, scl := range scales {
		chain, pl := cacheChain(scl)
		fresh, err := freshSolve(chain, pl)
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = want{fresh.Mapping.Modules, fresh.Throughput}
	}

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 25; i++ {
				which := rng.Intn(len(scales))
				chain, pl := cacheChain(scales[which])
				res, _, err := resolve(sc, chain, pl)
				if err != nil {
					errs <- err.Error()
					return
				}
				if !reflect.DeepEqual(res.Mapping.Modules, wants[which].modules) ||
					res.Throughput != wants[which].throughput {
					errs <- "concurrent resolve returned a mapping for the wrong instance"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	st := sc.Stats()
	if st.Hits == 0 {
		t.Error("concurrent hammer never hit the memo")
	}
	// Every lookup is counted once, under the cache lock.
	if st.Hits+st.Misses != 8*25 {
		t.Errorf("hits+misses = %d+%d, want %d lookups", st.Hits, st.Misses, 8*25)
	}
}

// TestSolveCachePublish checks the adapt.memo.* gauges: absolute totals,
// so publishing twice does not double them, and a nil cache or registry
// is a no-op.
func TestSolveCachePublish(t *testing.T) {
	sc := NewSolveCache()
	if st := sc.Stats(); st.HitRate != 0 {
		t.Errorf("hit rate before any lookup = %v, want 0", st.HitRate)
	}
	chain, pl := cacheChain(nil)
	for i := 0; i < 2; i++ {
		if _, _, err := resolve(sc, chain, pl); err != nil {
			t.Fatal(err)
		}
	}
	reg := live.NewRegistry(live.Options{})
	sc.Publish(reg)
	sc.Publish(reg)
	g := reg.Snapshot().Gauges
	for name, want := range map[string]float64{
		"adapt.memo.hits": 1, "adapt.memo.misses": 1, "adapt.memo.hit_rate": 0.5,
		"adapt.memo.invalidations": 0, "adapt.memo.full_solves": 1, "adapt.memo.incremental_solves": 0,
	} {
		if got, ok := g[name]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", name, got, ok, want)
		}
	}
	sc.Publish(nil)
	(*SolveCache)(nil).Publish(reg)
}

// TestSolveCacheReadsEveryBudget: one solve at the cap serves every
// budget below it, each equal to a fresh core.Map at that budget; a random
// walk of cost scales re-solves once per new cost state and hits the memo
// for a revisited one; a request at the cap shares the memo entry, and
// builds a frontier only where the cache reads it on every DP miss.
func TestSolveCacheReadsEveryBudget(t *testing.T) {
	sc := NewSolveCache()
	scales := [][]float64{{1, 1, 1}, {1, 1.5, 1}, {2, 1, 0.5}, {1, 1, 1}}
	wantPaths := []string{PathFullDP, PathIncremental, PathIncremental, PathMemo}
	for step, scale := range scales {
		chain, pl := cacheChain(scale)
		sig, key := CanonicalKeys(chain, pl)
		for b := 1; b <= pl.Procs; b++ {
			got, path, err := sc.Solve(chain, pl, sig, key, b)
			fresh, freshErr := freshSolve(chain, model.Platform{Procs: b, MemPerProc: pl.MemPerProc})
			if (err != nil) != (freshErr != nil) {
				t.Fatalf("step %d budget %d: error %v, fresh error %v", step, b, err, freshErr)
			}
			want := PathMemo
			if b == 1 {
				want = wantPaths[step]
			}
			if path != want {
				t.Fatalf("step %d budget %d: path %q, want %q", step, b, path, want)
			}
			if err == nil && !sameResult(got, fresh, chain) {
				t.Fatalf("step %d budget %d: frontier %v, fresh %v", step, b, &got.Mapping, &fresh.Mapping)
			}
		}
	}
	if st := sc.Stats(); st.FullSolves != 1 || st.IncrementalSolves != 2 {
		t.Errorf("solves = %d full, %d incremental; want 1 and 2", st.FullSolves, st.IncrementalSolves)
	}

	// A request at the cap hits the frontier's entry.
	chain, pl := cacheChain(nil)
	if _, path, err := resolve(sc, chain, pl); err != nil || path != PathMemo {
		t.Fatalf("request at the cap after the budget reads: path %q err %v, want a memo hit", path, err)
	}

	// NewSolveCache reads the frontier on every DP miss, the
	// controller's cache only below the cap: there an entry solved at the
	// cap carries no frontier, the first budget read re-scans the retained
	// tables, and the next one is a hit.
	sc = NewSolveCache()
	if _, _, err := resolve(sc, chain, pl); err != nil {
		t.Fatal(err)
	}
	sig, key := CanonicalKeys(chain, pl)
	if sc.results[key].frontier == nil {
		t.Fatal("a DP miss at the cap did not read the frontier")
	}
	sc = NewSolveCache()
	sc.onDemand = true
	if _, _, err := resolve(sc, chain, pl); err != nil {
		t.Fatal(err)
	}
	if sc.results[key].frontier != nil {
		t.Fatal("a request at the cap built a frontier on demand")
	}
	for i, want := range []string{PathIncremental, PathMemo} {
		if _, path, err := sc.Solve(chain, pl, sig, key, 3); err != nil || path != want {
			t.Fatalf("budget read %d after the cap: path %q err %v, want %q", i, path, err, want)
		}
	}

	// Out-of-range budgets are refused.
	for _, b := range []int{0, pl.Procs + 1} {
		if _, _, err := sc.Solve(chain, pl, sig, key, b); err == nil {
			t.Errorf("budget %d accepted", b)
		}
	}
}

package adapt

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"pipemap/internal/core"
	"pipemap/internal/model"
	"pipemap/internal/testutil"
)

// cacheChain is a three-task replicable chain small enough that the budget
// routes it to DP.
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

var cacheOpt = ResolveOptions{Budget: time.Second}

// TestSolveCacheMemoHit: the same canonical instance must return the
// identical mapping without re-solving — the solve counters stay put and
// the hit counter moves.
func TestSolveCacheMemoHit(t *testing.T) {
	sc := NewSolveCache()
	chainA, pl := cacheChain(nil)
	first, _, path, err := sc.Resolve(chainA, pl, cacheOpt)
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
	second, _, path, err := sc.Resolve(chainB, pl, cacheOpt)
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
// to a fresh budgeted re-solve.
func TestSolveCachePerturbationMisses(t *testing.T) {
	sc := NewSolveCache()
	chain, pl := cacheChain(nil)
	if _, _, _, err := sc.Resolve(chain, pl, cacheOpt); err != nil {
		t.Fatal(err)
	}
	// Perturb one task by 0.1% — tiny, but applied, so the hash must move.
	pert, _ := cacheChain([]float64{1, 1.001, 1})
	got, _, path, err := sc.Resolve(pert, pl, cacheOpt)
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
	fresh, _, err2 := Resolve(pert, pl, cacheOpt)
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
	if _, _, _, err := sc.Resolve(chain, pl, cacheOpt); err != nil {
		t.Fatal(err)
	}
	renamed, _ := cacheChain(nil)
	for i := range renamed.Tasks {
		renamed.Tasks[i].Name = "stage-" + string(rune('x'+i))
	}
	_, _, path, err := sc.Resolve(renamed, pl, cacheOpt)
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
	if _, _, _, err := sc.Resolve(chain, pl, cacheOpt); err != nil {
		t.Fatal(err)
	}
	small := pl
	small.Procs = 6
	_, _, path, err := sc.Resolve(chain, small, cacheOpt)
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
	res, _, _, err := sc.Resolve(chain, pl, cacheOpt)
	if err != nil {
		t.Fatal(err)
	}
	fresh, _, _ := Resolve(chain, pl, cacheOpt)
	if !reflect.DeepEqual(res.Mapping.Modules, fresh.Mapping.Modules) {
		t.Errorf("post-invalidation result wrong: %v vs fresh %v", &res.Mapping, &fresh.Mapping)
	}
}

// TestSolveCacheGreedyPath: instances the budget routes to greedy are
// memoized too, under the greedy-keyed hash.
func TestSolveCacheGreedyPath(t *testing.T) {
	sc := NewSolveCache()
	rng := rand.New(rand.NewSource(5))
	chain, pl := testutil.RandChain(rng,
		testutil.RandChainConfig{MinTasks: 4, MaxTasks: 4}, 16)
	// A budget far below the P^4 k^3 estimate forces greedy.
	opt := ResolveOptions{Budget: time.Nanosecond}
	res, _, path, err := sc.Resolve(chain, pl, opt)
	if err != nil {
		t.Fatal(err)
	}
	if path != PathGreedy || res.Algorithm != core.Greedy {
		t.Fatalf("path %q algo %v, want greedy", path, res.Algorithm)
	}
	_, _, path, err = sc.Resolve(chain, pl, opt)
	if err != nil {
		t.Fatal(err)
	}
	if path != PathMemo {
		t.Errorf("repeat greedy path %q, want %q", path, PathMemo)
	}
	// Same instance under a DP budget is a *different* key: greedy's memo
	// entry must not shadow the DP answer.
	dpRes, _, dpPath, err := sc.Resolve(chain, pl, ResolveOptions{Budget: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if dpPath == PathMemo {
		t.Fatalf("algorithm change hit the greedy memo entry")
	}
	if dpRes.Algorithm != core.DP {
		t.Errorf("algo %v under a DP budget, want DP", dpRes.Algorithm)
	}
}

// TestSolveCacheRandomWalkMatchesFresh drives random perturbation walks
// through the cache and checks every returned result — memo, incremental,
// or full — against an uncached budgeted re-solve.
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
			got, _, _, err := sc.Resolve(chain, pl, cacheOpt)
			fresh, _, freshErr := Resolve(chain, pl, cacheOpt)
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
		fresh, _, err := Resolve(chain, pl, cacheOpt)
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
				res, _, _, err := sc.Resolve(chain, pl, cacheOpt)
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
	if st := sc.Stats(); st.Hits == 0 {
		t.Error("concurrent hammer never hit the memo")
	}
}

// TestSolveCacheResolveBudget: one solve at the cap serves every budget
// below it, each equal to a fresh Resolve at that budget; a random walk of
// cost scales re-solves once per new cost state and hits the memo for a
// revisited one; Resolve and ResolveBudget share the memo entry without
// Resolve ever reading a frontier.
func TestSolveCacheResolveBudget(t *testing.T) {
	sc := NewSolveCache()
	scales := [][]float64{{1, 1, 1}, {1, 1.5, 1}, {2, 1, 0.5}, {1, 1, 1}}
	wantPaths := []string{PathFullDP, PathIncremental, PathIncremental, PathMemo}
	for step, scale := range scales {
		chain, pl := cacheChain(scale)
		sig, key := CanonicalStructSig(chain, pl, cacheOpt), CanonicalSpecKey(chain, pl, cacheOpt)
		for b := 1; b <= pl.Procs; b++ {
			got, path, err := sc.ResolveBudget(chain, pl, cacheOpt, sig, key, b)
			fresh, _, freshErr := Resolve(chain, model.Platform{Procs: b, MemPerProc: pl.MemPerProc}, cacheOpt)
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
			if err != nil {
				continue
			}
			if !reflect.DeepEqual(got.Mapping.Modules, fresh.Mapping.Modules) ||
				got.Throughput != fresh.Throughput || got.Latency != fresh.Latency ||
				got.Algorithm != fresh.Algorithm || got.Mapping.Chain != chain {
				t.Fatalf("step %d budget %d: frontier %v, fresh %v", step, b, &got.Mapping, &fresh.Mapping)
			}
		}
	}
	if st := sc.Stats(); st.FullSolves != 1 || st.IncrementalSolves != 2 {
		t.Errorf("solves = %d full, %d incremental; want 1 and 2", st.FullSolves, st.IncrementalSolves)
	}

	// A Resolve at the cap hits the frontier's entry.
	chain, pl := cacheChain(nil)
	if _, _, path, err := sc.Resolve(chain, pl, cacheOpt); err != nil || path != PathMemo {
		t.Fatalf("Resolve after ResolveBudget: path %q err %v, want a memo hit", path, err)
	}

	// A Resolve entry carries no frontier: the first budget read re-scans
	// the retained tables, and the next one is a hit.
	sc = NewSolveCache()
	if _, _, _, err := sc.Resolve(chain, pl, cacheOpt); err != nil {
		t.Fatal(err)
	}
	if ent := sc.results[CanonicalSpecKey(chain, pl, cacheOpt)]; ent.frontier != nil {
		t.Fatal("Resolve built a frontier")
	}
	sig, key := CanonicalStructSig(chain, pl, cacheOpt), CanonicalSpecKey(chain, pl, cacheOpt)
	for i, want := range []string{PathIncremental, PathMemo} {
		if _, path, err := sc.ResolveBudget(chain, pl, cacheOpt, sig, key, 3); err != nil || path != want {
			t.Fatalf("budget read %d after Resolve: path %q err %v, want %q", i, path, err, want)
		}
	}

	// Out-of-range budgets and instances routed to greedy are refused.
	for _, b := range []int{0, pl.Procs + 1} {
		if _, _, err := sc.ResolveBudget(chain, pl, cacheOpt, sig, key, b); err == nil {
			t.Errorf("budget %d accepted", b)
		}
	}
	greedy := ResolveOptions{Budget: time.Nanosecond}
	if HasFrontier(chain, pl, greedy) {
		t.Error("HasFrontier true for an instance routed to greedy")
	}
	if _, _, err := sc.ResolveBudget(chain, pl, greedy, CanonicalStructSig(chain, pl, greedy), CanonicalSpecKey(chain, pl, greedy), 3); err == nil {
		t.Error("ResolveBudget served an instance routed to greedy")
	}

	// With clustering off the retained solver keeps one module per task,
	// and its frontier serves every budget like any other DP instance.
	noClust := ResolveOptions{Budget: time.Second, DisableClustering: true}
	if !HasFrontier(chain, pl, noClust) {
		t.Fatal("HasFrontier false for a DP-routed instance without clustering")
	}
	sc = NewSolveCache()
	sig, key = CanonicalStructSig(chain, pl, noClust), CanonicalSpecKey(chain, pl, noClust)
	for b := 1; b <= pl.Procs; b++ {
		got, _, err := sc.ResolveBudget(chain, pl, noClust, sig, key, b)
		fresh, _, freshErr := Resolve(chain, model.Platform{Procs: b, MemPerProc: pl.MemPerProc}, noClust)
		if (err != nil) != (freshErr != nil) {
			t.Fatalf("clustering off, budget %d: error %v, fresh error %v", b, err, freshErr)
		}
		if err != nil {
			continue
		}
		if !reflect.DeepEqual(got.Mapping.Modules, fresh.Mapping.Modules) ||
			got.Throughput != fresh.Throughput || got.Latency != fresh.Latency ||
			len(got.Mapping.Modules) != chain.Len() {
			t.Fatalf("clustering off, budget %d: frontier %v, fresh %v", b, &got.Mapping, &fresh.Mapping)
		}
	}
	if st := sc.Stats(); st.FullSolves != 1 {
		t.Errorf("clustering off: %d full solves, want 1", st.FullSolves)
	}
}

package adapt

import (
	"fmt"
	"math"
	"sync"
	"time"

	"pipemap/internal/core"
	"pipemap/internal/dp"
	"pipemap/internal/model"
	"pipemap/internal/obs"
)

// Solve paths reported by SolveCache.Resolve: how the answer was obtained,
// in decreasing order of cheapness.
const (
	// PathMemo returned a memoized result without touching a solver.
	PathMemo = "memo"
	// PathIncremental re-solved only the DP layers invalidated by the
	// changed task costs.
	PathIncremental = "incremental"
	// PathFullDP ran a full DP solve.
	PathFullDP = "dp"
	// PathGreedy ran the greedy heuristic (budget routed away from DP).
	PathGreedy = "greedy"
)

// memoCap bounds the memoized-results map; oldest entries are evicted
// first. Adaptive controllers oscillate between a handful of cost states
// (hysteresis, rollback, cooldown), so a small cache captures nearly all
// repeats.
const memoCap = 64

// SolveCache is the cross-step memoization layer between the adaptive
// controller and the solvers. Results are keyed by a canonical hash of the
// instance — every cost function sampled at exactly the integer points the
// solvers evaluate, plus the platform, solver options, and the
// budget-selected algorithm — so two ticks with bit-identical costs hit
// the cache no matter how the chain was materialized (task names never
// enter the hash). On a miss with an unchanged structure, the cache diffs
// the per-task execution hashes against the previous tick to recover the
// exact changed-task set and routes it to the retained incremental DP
// solver; only structural changes (platform size, memory models, edge
// costs, options) force a full rebuild.
//
// The canonical hash samples Exec and ICom at p = 1..P and ECom at every
// (ps, pr) in 1..P x 1..P — precisely the grid the DP tabulates — so hash
// equality implies the solvers see bit-identical inputs and the memoized
// mapping is exactly what a fresh solve would return.
//
// A SolveCache is safe for concurrent use; a fleet of controllers may
// share one instance per pipeline spec, though each cache retains one
// incremental solver and serializes solves on it.
type SolveCache struct {
	mu sync.Mutex

	sig      uint64   // structural signature; 0 = empty cache
	execHash []uint64 // per-task exec sample hash of the last solved tick
	prevOK   bool     // execHash describes a completed solve
	solver   *dp.Solver
	results  map[uint64]memoEntry
	order    []uint64 // FIFO eviction order

	stats            obs.CacheStats
	fullSolves       int64
	incrementalSolve int64

	scratch []uint64 // per-tick exec hashes
	changed []int    // changed-task scratch
}

type memoEntry struct {
	modules    []model.Module
	algorithm  core.Algorithm
	throughput float64
	latency    float64
	// frontier, once ResolveBudget has read it from the solver, holds the
	// entry of every budget 0..P (nil modules where no mapping fits);
	// entry P equals the fields above.
	frontier []memoEntry
}

// result re-anchors a memoized entry on the caller's chain as a detached
// copy, so callers can never mutate the memo.
func (e memoEntry) result(chain *model.Chain) core.Result {
	res := core.Result{
		Mapping:    model.Mapping{Chain: chain, Modules: append([]model.Module(nil), e.modules...)},
		Algorithm:  e.algorithm,
		Throughput: e.throughput,
		Latency:    e.latency,
	}
	res.Unconstrained = res.Mapping
	return res
}

// NewSolveCache returns an empty cache.
func NewSolveCache() *SolveCache {
	return &SolveCache{results: map[uint64]memoEntry{}}
}

// SolveCacheStats is a point-in-time snapshot of cache effectiveness.
type SolveCacheStats struct {
	// Hits, Misses and Invalidations count memo lookups and structural
	// resets.
	Hits, Misses, Invalidations int64
	// HitRate is Hits/(Hits+Misses), 0 before any lookup.
	HitRate float64
	// FullSolves and IncrementalSolves split the misses by how they were
	// solved (full DP or greedy vs incremental DP).
	FullSolves, IncrementalSolves int64
}

// Stats snapshots the cache counters.
func (sc *SolveCache) Stats() SolveCacheStats {
	if sc == nil {
		return SolveCacheStats{}
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return SolveCacheStats{
		Hits:              sc.stats.Hits(),
		Misses:            sc.stats.Misses(),
		Invalidations:     sc.stats.Invalidations(),
		HitRate:           sc.stats.HitRate(),
		FullSolves:        sc.fullSolves,
		IncrementalSolves: sc.incrementalSolve,
	}
}

// Publish copies the cache counters into reg under adapt.memo.* gauges.
func (sc *SolveCache) Publish(reg *obs.Registry) {
	if sc == nil || reg == nil {
		return
	}
	sc.stats.Publish(reg, "adapt.memo")
	sc.mu.Lock()
	full, incr := sc.fullSolves, sc.incrementalSolve
	sc.mu.Unlock()
	reg.Set("adapt.memo.full_solves", float64(full))
	reg.Set("adapt.memo.incremental_solves", float64(incr))
}

// FNV-1a folded word-wise over 64-bit values: cheap, deterministic, and
// collision-resistant enough for a 64-entry memo keyed by sampled floats.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func mix(h, v uint64) uint64 {
	h ^= v
	return h * fnvPrime
}

func mixF(h uint64, f float64) uint64 { return mix(h, math.Float64bits(f)) }

func mixB(h uint64, b bool) uint64 {
	if b {
		return mix(h, 1)
	}
	return mix(h, 2)
}

// execTaskHash samples one task's execution cost at every per-instance
// processor count the DP can evaluate it at.
func execTaskHash(t model.Task, P int) uint64 {
	h := fnvOffset
	for p := 1; p <= P; p++ {
		h = mixF(h, t.Exec.Eval(p))
	}
	return h
}

// structuralSig hashes everything except the per-task execution costs:
// chain shape, memory models, replicability, minimum processors, internal
// and external edge costs, the platform, the solver options, and the
// selected algorithm. A change here invalidates the retained solver, not
// just the memo entries.
func structuralSig(chain *model.Chain, pl model.Platform, opt ResolveOptions, algo core.Algorithm) uint64 {
	P := pl.Procs
	h := fnvOffset
	h = mix(h, uint64(chain.Len()))
	h = mix(h, uint64(P))
	h = mixF(h, pl.MemPerProc)
	h = mixB(h, opt.DisableReplication)
	h = mixB(h, opt.DisableClustering)
	h = mix(h, uint64(algo))
	for _, t := range chain.Tasks {
		h = mixF(h, t.Mem.Fixed)
		h = mixF(h, t.Mem.Data)
		h = mixF(h, t.Mem.Buffer)
		h = mixB(h, t.Replicable)
		h = mix(h, uint64(int64(t.MinProcs)))
	}
	for _, f := range chain.ICom {
		for p := 1; p <= P; p++ {
			h = mixF(h, f.Eval(p))
		}
	}
	for _, f := range chain.ECom {
		for ps := 1; ps <= P; ps++ {
			for pr := 1; pr <= P; pr++ {
				h = mixF(h, f.Eval(ps, pr))
			}
		}
	}
	return h
}

// pickAlgorithm replicates Resolve's budget routing (and core's Auto
// selection when no budget is set) so the cache knows which engine a miss
// will run before hashing: the algorithm is part of the key, because DP
// and greedy legitimately return different mappings for the same costs.
func pickAlgorithm(chain *model.Chain, pl model.Platform, opt ResolveOptions) core.Algorithm {
	p, k := float64(pl.Procs), float64(chain.Len())
	est := p * p * p * p * k * k * k
	if opt.Budget > 0 {
		if est/dpOpsPerSecond > opt.Budget.Seconds() {
			return core.Greedy
		}
		return core.DP
	}
	if est <= autoDPBudget {
		return core.DP
	}
	return core.Greedy
}

// autoDPBudget mirrors core's Auto threshold (P^4 k^3 <= 5e9 picks DP).
const autoDPBudget = 5e9

// CanonicalStructSig exposes the cache's structural canonicalization for
// callers that need to group instances into solver families: two
// (chain, platform, options) triples with equal signatures share chain
// shape, memory models, replicability, minimum processors, internal and
// external edge costs, platform, solver options, and the budget-selected
// algorithm — everything except the per-task execution costs. The fleet
// scheduler keys its per-family SolveCache instances on this signature so
// structurally different tenant specs never thrash one cache's
// invalidation path.
func CanonicalStructSig(chain *model.Chain, pl model.Platform, opt ResolveOptions) uint64 {
	return structuralSig(chain, pl, opt, pickAlgorithm(chain, pl, opt))
}

// CanonicalSpecKey extends CanonicalStructSig with the per-task
// execution-cost hashes, sampling every cost function at exactly the
// integer points the solvers evaluate: it is the full solve-once-place-many
// key. Key equality implies the solvers see bit-identical inputs, so one
// solved mapping serves every spec with the same key (task names never
// enter the hash).
func CanonicalSpecKey(chain *model.Chain, pl model.Platform, opt ResolveOptions) uint64 {
	key := CanonicalStructSig(chain, pl, opt)
	for i := range chain.Tasks {
		key = mix(key, execTaskHash(chain.Tasks[i], pl.Procs))
	}
	return key
}

// Resolve is the cache-aware counterpart of the package-level Resolve: it
// returns the identical result a fresh budgeted re-solve would produce,
// the measured decision latency, and the path that produced it (PathMemo,
// PathIncremental, PathFullDP or PathGreedy).
func (sc *SolveCache) Resolve(chain *model.Chain, pl model.Platform, opt ResolveOptions) (core.Result, time.Duration, string, error) {
	start := time.Now()
	if err := chain.Validate(); err != nil {
		return core.Result{}, time.Since(start), "", err
	}
	if err := pl.Validate(); err != nil {
		return core.Result{}, time.Since(start), "", err
	}
	algo := pickAlgorithm(chain, pl, opt)

	sc.mu.Lock()
	defer sc.mu.Unlock()

	sig := structuralSig(chain, pl, opt, algo)
	hashes := sc.execHashes(chain, pl.Procs)
	key := sig
	for _, h := range hashes {
		key = mix(key, h)
	}

	sc.reset(sig)
	if ent, ok := sc.results[key]; ok {
		sc.stats.Hit()
		return ent.result(chain), time.Since(start), PathMemo, nil
	}
	sc.stats.Miss()

	var (
		res  core.Result
		path string
		err  error
	)
	if algo == core.DP {
		res, path, err = sc.solveDP(chain, pl, opt, hashes)
	} else {
		res, _, err = Resolve(chain, pl, ResolveOptions{
			Budget:             opt.Budget,
			DisableReplication: opt.DisableReplication,
			DisableClustering:  opt.DisableClustering,
			Trace:              opt.Trace,
			Metrics:            opt.Metrics,
		})
		path = PathGreedy
		sc.fullSolves++
	}
	if err != nil {
		sc.prevOK = false
		return core.Result{}, time.Since(start), path, err
	}

	sc.remember(key, hashes, memoEntry{
		modules:    append([]model.Module(nil), res.Mapping.Modules...),
		algorithm:  res.Algorithm,
		throughput: res.Throughput,
		latency:    res.Latency,
	})
	return res, time.Since(start), path, nil
}

// reset drops every memo entry and the retained solver when the
// structural signature moves: they describe a different instance.
func (sc *SolveCache) reset(sig uint64) {
	if sig == sc.sig {
		return
	}
	if sc.sig != 0 {
		sc.stats.Invalidate()
	}
	sc.sig = sig
	sc.solver = nil
	sc.prevOK = false
	sc.results = map[uint64]memoEntry{}
	sc.order = sc.order[:0]
}

// remember records a completed solve's per-task hashes as the incremental
// baseline and memoizes its entry under key, evicting the oldest entry
// beyond memoCap.
func (sc *SolveCache) remember(key uint64, hashes []uint64, ent memoEntry) {
	k := len(hashes)
	if cap(sc.execHash) < k {
		sc.execHash = make([]uint64, k)
	}
	sc.execHash = sc.execHash[:k]
	copy(sc.execHash, hashes)
	sc.prevOK = true
	if _, ok := sc.results[key]; !ok {
		if len(sc.order) >= memoCap {
			delete(sc.results, sc.order[0])
			sc.order = sc.order[:copy(sc.order, sc.order[1:])]
		}
		sc.order = append(sc.order, key)
	}
	sc.results[key] = ent
}

// execHashes fills the per-task execution hashes of chain at P processors
// into the cache's scratch.
func (sc *SolveCache) execHashes(chain *model.Chain, P int) []uint64 {
	k := chain.Len()
	if cap(sc.scratch) < k {
		sc.scratch = make([]uint64, k)
	}
	hashes := sc.scratch[:k]
	for i := range chain.Tasks {
		hashes[i] = execTaskHash(chain.Tasks[i], P)
	}
	return hashes
}

// HasFrontier reports whether ResolveBudget serves (chain, pl, opt):
// budget routing picks DP at pl.Procs. The routing estimate grows with the
// processor count, so every smaller budget routes to DP too and one table
// serves them all.
func HasFrontier(chain *model.Chain, pl model.Platform, opt ResolveOptions) bool {
	return pickAlgorithm(chain, pl, opt) == core.DP
}

// ResolveBudget returns the result a fresh Resolve of chain on budget
// processors (1 <= budget <= pl.Procs) returns, read from the per-budget
// frontier of the instance solved at pl, the allocation cap. One DP solve
// at the cap thus serves every budget below it: a miss solves the cap
// instance through the retained solver (incrementally when only execution
// costs moved) and memoizes the whole frontier under the same canonical
// key Resolve uses; a hit is a lookup. sig and key must be
// CanonicalStructSig and CanonicalSpecKey of (chain, pl, opt): callers that
// place one spec at many budgets hash it once. The instance must satisfy
// HasFrontier. The path is PathMemo for a frontier read and PathFullDP or
// PathIncremental when a solve ran. Resolve never builds a frontier.
func (sc *SolveCache) ResolveBudget(chain *model.Chain, pl model.Platform, opt ResolveOptions, sig, key uint64, budget int) (core.Result, string, error) {
	if !HasFrontier(chain, pl, opt) {
		return core.Result{}, "", fmt.Errorf("adapt: no per-budget frontier for %d tasks on %d processors", chain.Len(), pl.Procs)
	}
	if budget < 1 || budget > pl.Procs {
		return core.Result{}, "", fmt.Errorf("adapt: budget %d outside [1, %d]", budget, pl.Procs)
	}

	sc.mu.Lock()
	defer sc.mu.Unlock()

	sc.reset(sig)
	path := PathMemo
	ent, ok := sc.results[key]
	if ok && ent.frontier != nil {
		sc.stats.Hit()
	} else {
		sc.stats.Miss()
		if err := chain.Validate(); err != nil {
			return core.Result{}, "", err
		}
		if err := pl.Validate(); err != nil {
			return core.Result{}, "", err
		}
		hashes := sc.execHashes(chain, pl.Procs)
		var err error
		ent, path, err = sc.solveFrontier(chain, pl, opt, hashes)
		if err != nil {
			sc.prevOK = false
			return core.Result{}, path, err
		}
		sc.remember(key, hashes, ent)
	}
	at := ent.frontier[budget]
	if at.modules == nil {
		return core.Result{}, path, fmt.Errorf("adapt: no feasible mapping of %d tasks onto %d processors", chain.Len(), budget)
	}
	return at.result(chain), path, nil
}

// solveFrontier solves the cap instance through the retained solver and
// reads its per-budget frontier into a memo entry. Budgets that share a
// winner share its module slice.
func (sc *SolveCache) solveFrontier(chain *model.Chain, pl model.Platform, opt ResolveOptions, hashes []uint64) (memoEntry, string, error) {
	_, path, err := sc.solveDP(chain, pl, opt, hashes)
	if err != nil {
		return memoEntry{}, path, err
	}
	fr, err := sc.solver.Frontier()
	if err != nil {
		return memoEntry{}, path, err
	}
	front := make([]memoEntry, len(fr))
	for b, m := range fr {
		if m.Modules == nil {
			continue
		}
		front[b] = memoEntry{
			modules:    m.Modules,
			algorithm:  core.DP,
			throughput: m.Throughput(),
			latency:    m.Latency(),
		}
	}
	// The solve succeeded at the cap, so the cap's entry is the mapping
	// Resolve would memoize for this key.
	ent := front[pl.Procs]
	ent.frontier = front
	return ent, path, nil
}

// solveDP runs the DP engine, incrementally when the previous tick solved
// the same structure and left per-task hashes to diff against.
func (sc *SolveCache) solveDP(chain *model.Chain, pl model.Platform, opt ResolveOptions, hashes []uint64) (core.Result, string, error) {
	dpOpt := dp.Options{
		DisableReplication: opt.DisableReplication,
		DisableClustering:  opt.DisableClustering,
		Trace:              opt.Trace,
		Metrics:            opt.Metrics,
	}
	path := PathFullDP
	var (
		m   model.Mapping
		err error
	)
	switch {
	case sc.solver == nil:
		sc.solver, err = dp.NewSolver(chain, pl, dpOpt)
		if err != nil {
			return core.Result{}, path, err
		}
		m, err = sc.solver.Solve()
		sc.fullSolves++
	case sc.prevOK:
		// Diff the per-task exec hashes to recover the changed set; the
		// caller's belief about what moved is never trusted.
		sc.changed = sc.changed[:0]
		for i, h := range hashes {
			if h != sc.execHash[i] {
				sc.changed = append(sc.changed, i)
			}
		}
		m, err = sc.solver.Resolve(chain, sc.changed)
		path = PathIncremental
		sc.incrementalSolve++
	default:
		// The solver exists but the last attempt failed, so its tables may
		// hold a mix of cost states; mark every task changed to force a
		// full retabulation and recompute.
		sc.changed = sc.changed[:0]
		for i := range hashes {
			sc.changed = append(sc.changed, i)
		}
		m, err = sc.solver.Resolve(chain, sc.changed)
		sc.fullSolves++
	}
	if err != nil {
		return core.Result{}, path, err
	}
	// The solver's mapping aliases its scratch; detach before it escapes.
	m.Modules = append([]model.Module(nil), m.Modules...)
	res := core.Result{
		Mapping:       m,
		Algorithm:     core.DP,
		Throughput:    m.Throughput(),
		Latency:       m.Latency(),
		Unconstrained: m,
	}
	return res, path, nil
}

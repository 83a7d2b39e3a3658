package adapt

import (
	"fmt"
	"math"
	"sync"

	"pipemap/internal/core"
	"pipemap/internal/dp"
	"pipemap/internal/model"
	"pipemap/internal/obs"
	"pipemap/internal/obs/live"
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
	// PathGreedy ran the greedy heuristic (core.AutoAlgorithm routed the
	// instance away from DP).
	PathGreedy = "greedy"
)

// ResolveOptions carries the solver knobs of one cached re-solve.
type ResolveOptions struct {
	// DisableReplication and DisableClustering are forwarded to the solver.
	DisableReplication bool
	DisableClustering  bool
	// Trace and Metrics receive solver spans and counters; nil disables.
	Trace   *obs.Tracer
	Metrics *live.Registry
}

// memoCap bounds the memoized-results map; oldest entries are evicted
// first. Adaptive controllers oscillate between a handful of cost states
// (hysteresis, rollback, cooldown), so a small cache captures nearly all
// repeats.
const memoCap = 64

// SolveCache is the cross-step memoization layer between the adaptive
// controller and the solvers. Results are keyed by CanonicalKeys, a
// canonical hash of the instance — every cost function sampled at exactly
// the integer points the solvers evaluate, plus the platform, solver
// options, and the algorithm core.AutoAlgorithm picks — so two ticks with
// bit-identical costs hit the cache no matter how the chain was
// materialized (task names never enter the hash). On a miss with an
// unchanged structure, the cache diffs the per-task execution hashes
// against the previous tick to recover the exact changed-task set and
// routes it to the retained incremental DP solver; only structural
// changes (platform size, memory models, edge costs, options) force a
// full rebuild.
//
// The canonical hash samples Exec and ICom at p = 1..P and ECom on
// dp.CommGrid's points: per edge, every count a module ending there can
// hold against every count a module starting there can hold, the grid the
// DP tabulates and every solver reads. Hash equality therefore implies
// the solvers see bit-identical inputs, and the memoized mapping is
// exactly what a fresh solve would return.
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

	// Counters behind Stats, guarded by mu like the rest of the cache.
	hits, misses, invalidations   int64
	fullSolves, incrementalSolves int64

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
	st := SolveCacheStats{
		Hits:              sc.hits,
		Misses:            sc.misses,
		Invalidations:     sc.invalidations,
		FullSolves:        sc.fullSolves,
		IncrementalSolves: sc.incrementalSolves,
	}
	if n := st.Hits + st.Misses; n > 0 {
		st.HitRate = float64(st.Hits) / float64(n)
	}
	return st
}

// Publish copies the cache counters into reg as adapt.memo.* gauges:
// absolute totals, so publishing again overwrites rather than re-adds.
func (sc *SolveCache) Publish(reg *live.Registry) {
	if sc == nil || reg == nil {
		return
	}
	st := sc.Stats()
	reg.Gauge("adapt.memo.hits").Set(float64(st.Hits))
	reg.Gauge("adapt.memo.misses").Set(float64(st.Misses))
	reg.Gauge("adapt.memo.invalidations").Set(float64(st.Invalidations))
	reg.Gauge("adapt.memo.hit_rate").Set(st.HitRate)
	reg.Gauge("adapt.memo.full_solves").Set(float64(st.FullSolves))
	reg.Gauge("adapt.memo.incremental_solves").Set(float64(st.IncrementalSolves))
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
// edge costs at p = 1..P and external ones on dp.CommGrid's points, the
// platform, the solver options, and the algorithm core.AutoAlgorithm
// selects (DP and greedy legitimately return different mappings for the
// same costs). Everything that fixes the grid is mixed in before the first
// ECom sample, so equal signatures sample equal grids. A change here
// invalidates the retained solver, not just the memo entries.
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
	gridOpt := dp.Options{DisableReplication: opt.DisableReplication, DisableClustering: opt.DisableClustering}
	dp.CommGrid(chain, pl, gridOpt, func(e int, send, recv []int) {
		f := chain.ECom[e]
		for _, ps := range send {
			for _, pr := range recv {
				h = mixF(h, f.Eval(ps, pr))
			}
		}
	})
	return h
}

// CanonicalKeys hashes (chain, pl, opt) once into the cache's two
// canonical keys. sig is the structural signature: everything except the
// per-task execution costs (see structuralSig). The fleet groups instances
// into solver families by it, so structurally different tenant specs never
// thrash one cache's invalidation path. key extends sig with every task's
// execution cost at p = 1..P: it is the full solve-once-place-many key.
// Each cost function is sampled at exactly the points the solvers
// evaluate, so key equality implies the solvers see bit-identical inputs
// and one solved mapping serves every spec with the same key (task names
// never enter the hash). Resolve and ResolveBudget take both. The chain
// must be valid.
func CanonicalKeys(chain *model.Chain, pl model.Platform, opt ResolveOptions) (sig, key uint64) {
	sig = structuralSig(chain, pl, opt, core.AutoAlgorithm(chain.Len(), pl.Procs))
	key = sig
	for i := range chain.Tasks {
		key = mix(key, execTaskHash(chain.Tasks[i], pl.Procs))
	}
	return sig, key
}

// Resolve returns the identical result a fresh core.Map of (chain, pl)
// under Auto with opt's solver options would produce, and the path that
// produced it (PathMemo, PathIncremental, PathFullDP or PathGreedy). sig
// and key must be CanonicalKeys of (chain, pl, opt): a memo hit is then a
// lookup, and only a miss samples the execution costs again, to diff them
// against the previous solve.
func (sc *SolveCache) Resolve(chain *model.Chain, pl model.Platform, opt ResolveOptions, sig, key uint64) (core.Result, string, error) {
	if err := chain.Validate(); err != nil {
		return core.Result{}, "", err
	}
	if err := pl.Validate(); err != nil {
		return core.Result{}, "", err
	}

	sc.mu.Lock()
	defer sc.mu.Unlock()

	sc.reset(sig)
	if ent, ok := sc.results[key]; ok {
		sc.hits++
		return ent.result(chain), PathMemo, nil
	}
	sc.misses++

	var (
		res  core.Result
		path string
		err  error
	)
	hashes := sc.execHashes(chain, pl.Procs)
	if core.AutoAlgorithm(chain.Len(), pl.Procs) == core.DP {
		res, path, err = sc.solveDP(chain, pl, opt, hashes)
	} else {
		res, err = core.Map(core.Request{
			Chain:              chain,
			Platform:           pl,
			Algorithm:          core.Greedy,
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
		return core.Result{}, path, err
	}

	sc.remember(key, hashes, memoEntry{
		modules:    append([]model.Module(nil), res.Mapping.Modules...),
		algorithm:  res.Algorithm,
		throughput: res.Throughput,
		latency:    res.Latency,
	})
	return res, path, nil
}

// reset drops every memo entry and the retained solver when the
// structural signature moves: they describe a different instance.
func (sc *SolveCache) reset(sig uint64) {
	if sig == sc.sig {
		return
	}
	if sc.sig != 0 {
		sc.invalidations++
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

// HasFrontier reports whether ResolveBudget serves (chain, pl):
// core.AutoAlgorithm picks DP at pl.Procs, and so at every smaller budget,
// so one table serves them all.
func HasFrontier(chain *model.Chain, pl model.Platform) bool {
	return core.AutoAlgorithm(chain.Len(), pl.Procs) == core.DP
}

// ResolveBudget returns the result a fresh Resolve of chain on budget
// processors (1 <= budget <= pl.Procs) returns, read from the per-budget
// frontier of the instance solved at pl, the allocation cap. One DP solve
// at the cap thus serves every budget below it: a miss solves the cap
// instance through the retained solver (incrementally when only execution
// costs moved) and memoizes the whole frontier under the same canonical
// key Resolve uses; a hit is a lookup. sig and key must be CanonicalKeys
// of (chain, pl, opt): callers that place one spec at many budgets hash it
// once. The instance must satisfy
// HasFrontier. The path is PathMemo for a frontier read and PathFullDP or
// PathIncremental when a solve ran. Resolve never builds a frontier.
func (sc *SolveCache) ResolveBudget(chain *model.Chain, pl model.Platform, opt ResolveOptions, sig, key uint64, budget int) (core.Result, string, error) {
	if !HasFrontier(chain, pl) {
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
		sc.hits++
	} else {
		sc.misses++
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
		sc.incrementalSolves++
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

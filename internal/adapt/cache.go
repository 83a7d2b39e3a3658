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

// Solve paths reported by SolveCache.Solve: how the answer was obtained,
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

// memoCap bounds the memoized-results map; oldest entries are evicted
// first. Adaptive controllers oscillate between a handful of cost states
// (hysteresis, rollback, cooldown), so a small cache captures nearly all
// repeats.
const memoCap = 64

// SolveCache is the cross-step memoization layer between the adaptive
// controller (or a fleet family) and the solvers. An instance is keyed at
// its cap, the largest platform it is ever placed on, by CanonicalKeys, a
// canonical hash of every cost function sampled at exactly the integer
// points the solvers evaluate, plus the platform and the algorithm
// core.AutoAlgorithm picks at the cap; two requests with bit-identical
// costs hit the cache no matter how the chain was materialized (task
// names never enter the hash). Solve reads any budget up to the cap: a cap
// routed to DP is solved once and every smaller budget is read from that
// table's per-budget frontier. On a miss with an unchanged structure, the
// cache diffs the per-task execution hashes against the previous solve to
// recover the exact changed-task set and routes it to the retained
// incremental DP solver; only structural changes (cap size, memory
// models, edge costs) force a full rebuild.
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
	execHash []uint64 // per-task exec sample hash of the solver's last solve
	prevOK   bool     // execHash describes a completed solve
	solver   *dp.Solver
	results  map[uint64]memoEntry
	order    []uint64 // FIFO eviction order

	// trace and metrics receive solver spans and counters (the
	// controller's; a fleet family leaves them nil).
	trace   *obs.Tracer
	metrics *live.Registry
	// onDemand reads a DP cap's frontier only when a budget below the cap
	// is asked for. The controller sets it: its budget is its nominal
	// platform until an instance dies. A fleet family, whose allocations
	// move with every rebalance, reads the frontier on every DP miss,
	// while the retained solver still holds the instance.
	onDemand bool

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
	// frontier, once a budget below the cap has been asked for, holds the
	// entry of every budget 0..P read from the solver (nil modules where
	// no mapping fits); entry P equals the fields above.
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

// NewSolveCache returns an empty cache that reads a DP cap's per-budget
// frontier on every DP miss, for an owner that places one instance at
// moving budgets, as a fleet family does.
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
// platform, and the algorithm core.AutoAlgorithm selects (DP and greedy
// legitimately return different mappings for the same costs). Everything
// that fixes the grid is mixed in before the first ECom sample, so equal
// signatures sample equal grids. A change here invalidates the retained
// solver, not just the memo entries.
func structuralSig(chain *model.Chain, pl model.Platform, algo core.Algorithm) uint64 {
	P := pl.Procs
	h := fnvOffset
	h = mix(h, uint64(chain.Len()))
	h = mix(h, uint64(P))
	h = mixF(h, pl.MemPerProc)
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
	dp.CommGrid(chain, pl, dp.Options{}, func(e int, send, recv []int) {
		f := chain.ECom[e]
		for _, ps := range send {
			for _, pr := range recv {
				h = mixF(h, f.Eval(ps, pr))
			}
		}
	})
	return h
}

// CanonicalKeys hashes (chain, pl) once into the cache's two canonical
// keys, where pl is the cap: the largest platform the instance is solved
// on. sig is the structural signature: everything except the per-task
// execution costs (see structuralSig). The fleet groups instances into
// solver families by it, so structurally different tenant specs never
// thrash one cache's invalidation path. key extends sig with every task's
// execution cost at p = 1..P: it is the full solve-once-place-many key.
// Each cost function is sampled at exactly the points the solvers
// evaluate on pl, a superset of those they evaluate on any smaller budget,
// so key equality implies the solvers see bit-identical inputs at every
// budget up to the cap and one solved mapping serves every spec with the
// same key (task names never enter the hash). Solve takes both. The chain
// must be valid.
func CanonicalKeys(chain *model.Chain, pl model.Platform) (sig, key uint64) {
	sig = structuralSig(chain, pl, core.AutoAlgorithm(chain.Len(), pl.Procs))
	key = sig
	for i := range chain.Tasks {
		key = mix(key, execTaskHash(chain.Tasks[i], pl.Procs))
	}
	return sig, key
}

// Solve returns the result a fresh core.Map of chain under Auto returns on
// budget processors (1 <= budget <= capPl.Procs, with capPl's memory per
// processor), and the path that produced it: PathMemo, PathIncremental,
// PathFullDP or PathGreedy. capPl is the cap the instance is keyed at, and
// sig and key must be CanonicalKeys of (chain, capPl): a caller that
// places one instance at many budgets hashes it once, and a memo hit is a
// lookup, with no solve and no rehash.
//
// A cap core.AutoAlgorithm routes to DP is solved at the cap on the
// retained solver, incrementally when only execution costs moved since
// its last solve. Every smaller budget routes to DP too and is read from
// that table's per-budget frontier, memoized beside the cap's mapping. A
// NewSolveCache reads the frontier on every DP miss; the controller's
// cache only when a budget below the cap is asked for, so the first such
// request for an entry solved at the cap solves it again on the retained
// solver (a re-scan alone when the solver still holds it). A cap routed
// to greedy has no table to read: each budget is solved cold as core.Map
// solves it, DP or greedy, and memoized under the cap's key and the
// budget.
func (sc *SolveCache) Solve(chain *model.Chain, capPl model.Platform, sig, key uint64, budget int) (core.Result, string, error) {
	if budget < 1 || budget > capPl.Procs {
		return core.Result{}, "", fmt.Errorf("adapt: budget %d outside [1, %d]", budget, capPl.Procs)
	}
	dpCap := core.AutoAlgorithm(chain.Len(), capPl.Procs) == core.DP
	below := budget < capPl.Procs
	if !dpCap {
		key = mix(key, uint64(budget))
	}

	sc.mu.Lock()
	defer sc.mu.Unlock()

	sc.reset(sig)
	path := PathMemo
	ent, ok := sc.results[key]
	if ok && (!dpCap || !below || ent.frontier != nil) {
		sc.hits++
	} else {
		sc.misses++
		if err := chain.Validate(); err != nil {
			return core.Result{}, "", err
		}
		if err := capPl.Validate(); err != nil {
			return core.Result{}, "", err
		}
		var err error
		if dpCap {
			ent, path, err = sc.solveDP(chain, capPl, below || !sc.onDemand)
		} else {
			ent, path, err = sc.solveCold(chain, model.Platform{Procs: budget, MemPerProc: capPl.MemPerProc})
		}
		if err != nil {
			return core.Result{}, path, err
		}
		sc.remember(key, ent)
	}
	if dpCap && below {
		if ent = ent.frontier[budget]; ent.modules == nil {
			return core.Result{}, path, fmt.Errorf("adapt: no feasible mapping of %d tasks onto %d processors", chain.Len(), budget)
		}
	}
	return ent.result(chain), path, nil
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

// remember memoizes ent under key, evicting the oldest entry beyond
// memoCap.
func (sc *SolveCache) remember(key uint64, ent memoEntry) {
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

// solveDP solves the cap instance on the retained DP solver, incrementally
// when it last solved the same structure and left per-task hashes to diff
// against, and returns the cap's memo entry, carrying the per-budget
// frontier when withFrontier. Budgets that share a winner share its
// module slice.
func (sc *SolveCache) solveDP(chain *model.Chain, pl model.Platform, withFrontier bool) (memoEntry, string, error) {
	hashes := sc.execHashes(chain, pl.Procs)
	path := PathFullDP
	var (
		m   model.Mapping
		err error
	)
	switch {
	case sc.solver == nil:
		sc.solver, err = dp.NewSolver(chain, pl, dp.Options{Trace: sc.trace, Metrics: sc.metrics})
		if err != nil {
			return memoEntry{}, path, err
		}
		m, err = sc.solver.Solve()
		sc.fullSolves++
	case sc.prevOK:
		// Diff the per-task exec hashes to recover the changed set; the
		// caller's belief about what moved is never trusted. An empty set
		// only re-scans the retained tables.
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
	sc.prevOK = err == nil
	if err != nil {
		return memoEntry{}, path, err
	}
	sc.execHash = append(sc.execHash[:0], hashes...)
	// The solver's mapping aliases its scratch; detach before it escapes.
	ent := dpEntry(append([]model.Module(nil), m.Modules...), m)
	if withFrontier {
		fr, err := sc.solver.Frontier()
		if err != nil {
			return memoEntry{}, path, err
		}
		ent.frontier = make([]memoEntry, len(fr))
		for b, fm := range fr {
			if fm.Modules != nil {
				ent.frontier[b] = dpEntry(fm.Modules, fm)
			}
		}
	}
	return ent, path, nil
}

// dpEntry is the memo entry of a DP mapping m whose modules are stored as
// modules.
func dpEntry(modules []model.Module, m model.Mapping) memoEntry {
	return memoEntry{modules: modules, algorithm: core.DP, throughput: m.Throughput(), latency: m.Latency()}
}

// solveCold solves one budget of a cap routed to greedy as core.Map does:
// DP or greedy by core.AutoAlgorithm at the budget, with no retained
// tables. A budget routed to DP gets no retained solver: its table would
// serve that budget alone.
func (sc *SolveCache) solveCold(chain *model.Chain, pl model.Platform) (memoEntry, string, error) {
	path := PathGreedy
	if core.AutoAlgorithm(chain.Len(), pl.Procs) == core.DP {
		path = PathFullDP
	}
	sc.fullSolves++
	res, err := core.Map(core.Request{Chain: chain, Platform: pl, Trace: sc.trace, Metrics: sc.metrics})
	if err != nil {
		return memoEntry{}, path, err
	}
	return memoEntry{
		modules:    res.Mapping.Modules,
		algorithm:  res.Algorithm,
		throughput: res.Throughput,
		latency:    res.Latency,
	}, path, nil
}

package fleet

import (
	"sync"

	"pipemap/internal/adapt"
	"pipemap/internal/core"
	"pipemap/internal/dp"
	"pipemap/internal/machine"
	"pipemap/internal/model"
)

// familyCap bounds the number of retained per-structure solve caches; a
// fleet serves many tenants but few distinct spec structures, so the
// oldest family is evicted FIFO when the bound is hit.
const familyCap = 256

// gridMemoCap bounds the machine-constrained solve memo.
const gridMemoCap = 256

// Cache is the fleet-level solve-once-place-many layer. It groups specs
// into structural families keyed by the sig of adapt.CanonicalKeys at the
// spec's allocation cap and delegates each family to its own
// adapt.SolveCache, so two tenants alternating structurally different
// specs never thrash one cache's invalidation path, while N tenants
// submitting the identical spec share one memo entry and one retained
// incremental solver. Solve serves every allocation up to the cap from
// the family: from one DP solve's per-budget frontier when the cap routes
// to DP, from one memoized solve per allocation when it routes to greedy.
// Machine-constrained (grid) solves, which the SolveCache cannot express,
// are memoized separately keyed by (cap key, allocation, region dims).
//
// A Cache is safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	families map[uint64]*adapt.SolveCache
	order    []uint64

	gridMemo  map[gridKey]gridEntry
	gridOrder []gridKey
	gridHits  int64
	gridMiss  int64
	gridSolve int64
}

type gridKey struct {
	key               uint64 // canonical spec key at the cap
	procs, rows, cols int
}

type gridEntry struct {
	modules    []model.Module
	throughput float64
	latency    float64
}

// NewCache returns an empty fleet solve cache.
func NewCache() *Cache {
	return &Cache{
		families: map[uint64]*adapt.SolveCache{},
		gridMemo: map[gridKey]gridEntry{},
	}
}

// CacheStats aggregates hit/miss/solve counters across every family plus
// the grid memo.
type CacheStats struct {
	// Families is the number of retained structural families.
	Families int `json:"families"`
	// Hits, Misses and Invalidations sum the family memo counters and the
	// grid memo lookups.
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Invalidations int64 `json:"invalidations"`
	// FullSolves and IncrementalSolves split the misses by solve path.
	FullSolves        int64 `json:"fullSolves"`
	IncrementalSolves int64 `json:"incrementalSolves"`
	// HitRate is Hits/(Hits+Misses), 0 before any lookup.
	HitRate float64 `json:"hitRate"`
}

// Stats snapshots the aggregated cache counters.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	fams := make([]*adapt.SolveCache, 0, len(c.families))
	for _, f := range c.families {
		fams = append(fams, f)
	}
	st := CacheStats{
		Families:   len(c.families),
		Hits:       c.gridHits,
		Misses:     c.gridMiss,
		FullSolves: c.gridSolve,
	}
	c.mu.Unlock()
	// Family stats are snapshotted outside the cache lock: each SolveCache
	// serializes internally, and Solve never holds c.mu across a solve.
	for _, f := range fams {
		fs := f.Stats()
		st.Hits += fs.Hits
		st.Misses += fs.Misses
		st.Invalidations += fs.Invalidations
		st.FullSolves += fs.FullSolves
		st.IncrementalSolves += fs.IncrementalSolves
	}
	if st.Hits+st.Misses > 0 {
		st.HitRate = float64(st.Hits) / float64(st.Hits+st.Misses)
	}
	return st
}

// family returns the SolveCache for a structural signature, creating it
// (and evicting the oldest family beyond the cap) as needed.
func (c *Cache) family(sig uint64) *adapt.SolveCache {
	c.mu.Lock()
	defer c.mu.Unlock()
	f := c.families[sig]
	if f == nil {
		if len(c.order) >= familyCap {
			delete(c.families, c.order[0])
			c.order = c.order[:copy(c.order, c.order[1:])]
		}
		f = adapt.NewSolveCache()
		c.families[sig] = f
		c.order = append(c.order, sig)
	}
	return f
}

// Solve maps a chain onto budget processors through the family of its
// cap capPl; sig and key are adapt.CanonicalKeys of (chain, capPl),
// computed once by the caller. Every allocation of one spec shares the
// family's solve at the cap, and a re-placement at another allocation is
// a memo lookup. The result equals a fresh core.Map under Auto on budget
// processors, its mapping is a detached copy, and the path is one of
// adapt.PathMemo, PathIncremental, PathFullDP or PathGreedy (see
// adapt.SolveCache.Solve).
func (c *Cache) Solve(chain *model.Chain, capPl model.Platform, sig, key uint64, budget int) (core.Result, string, error) {
	return c.family(sig).Solve(chain, capPl, sig, key, budget)
}

// PathGrid marks a placement solved under machine (grid) constraints.
const PathGrid = "grid"

// PathGridMemo marks a machine-constrained placement served from the grid
// memo without solving.
const PathGridMemo = "grid-memo"

// SolveGrid is the machine-constrained companion of Solve, used when a
// pipeline's unconstrained optimum does not pack into its grid region: it
// finds the best mapping feasible on the region at the allocation pl
// (machine.FeasibleOptimal) and memoizes it by (key, allocation, region
// dims), where key is the spec's adapt.CanonicalKeys key at its cap.
func (c *Cache) SolveGrid(chain *model.Chain, pl model.Platform, key uint64, g machine.Grid) (core.Result, string, error) {
	gk := gridKey{key: key, procs: pl.Procs, rows: g.Rows, cols: g.Cols}
	c.mu.Lock()
	if ent, ok := c.gridMemo[gk]; ok {
		c.gridHits++
		c.mu.Unlock()
		m := model.Mapping{Chain: chain, Modules: append([]model.Module(nil), ent.modules...)}
		return core.Result{
			Mapping: m, Algorithm: core.DP,
			Throughput: ent.throughput, Latency: ent.latency, Unconstrained: m,
		}, PathGridMemo, nil
	}
	c.gridMiss++
	c.mu.Unlock()

	m, _, err := machine.FeasibleOptimal(chain, pl, machine.Constraints{Grid: g}, dp.Options{})
	if err != nil {
		return core.Result{}, PathGrid, err
	}
	m.Modules = append([]model.Module(nil), m.Modules...)

	c.mu.Lock()
	c.gridSolve++
	if _, ok := c.gridMemo[gk]; !ok {
		if len(c.gridOrder) >= gridMemoCap {
			delete(c.gridMemo, c.gridOrder[0])
			c.gridOrder = c.gridOrder[:copy(c.gridOrder, c.gridOrder[1:])]
		}
		c.gridMemo[gk] = gridEntry{
			modules:    append([]model.Module(nil), m.Modules...),
			throughput: m.Throughput(),
			latency:    m.Latency(),
		}
		c.gridOrder = append(c.gridOrder, gk)
	}
	c.mu.Unlock()
	return core.Result{
		Mapping: m, Algorithm: core.DP,
		Throughput: m.Throughput(), Latency: m.Latency(), Unconstrained: m,
	}, PathGrid, nil
}

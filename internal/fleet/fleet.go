package fleet

import (
	"fmt"
	"sync"
	"time"

	"pipemap/internal/adapt"
	"pipemap/internal/machine"
	"pipemap/internal/model"
	"pipemap/internal/obs/live"
)

// Spec is one tenant's admission request: a chain with cost models plus
// scheduling hints.
type Spec struct {
	// Tenant identifies the owner; informational (it never enters the
	// solve cache key).
	Tenant string
	// Chain is the task chain with cost models.
	Chain *model.Chain
	// Priority weights the pool share and the eviction order; higher keeps
	// longer and receives proportionally more surplus. Zero means 1.
	Priority int
	// MaxProcs caps the allocation (0 = no cap beyond the pool); specs
	// carry their own platform size here so a small chain never hoards a
	// large pool.
	MaxProcs int
}

// Config configures a fleet scheduler.
type Config struct {
	// Pool is the shared processor pool every pipeline is carved from.
	Pool model.Platform
	// Grid, when non-zero, adds geometric packing: allocations become
	// disjoint rectangles on the grid and every placed mapping must be
	// machine-feasible inside its region. Pool.Procs is clamped to the
	// grid size (and defaults to it when zero).
	Grid machine.Grid
	// MaxPipelines bounds concurrent admissions (0 = unbounded).
	MaxPipelines int
	// Registry receives fleet_* metrics; nil disables.
	Registry *live.Registry
	// Now injects a clock for tests; nil means time.Now.
	Now func() time.Time
}

// Placement is the externally visible state of one admitted pipeline.
type Placement struct {
	ID       int64  `json:"id"`
	Tenant   string `json:"tenant"`
	Priority int    `json:"priority"`
	// Key is the canonical spec hash at the allocation cap, computed once
	// at admission — equal keys mean the solver ran once for all of them,
	// whatever their allocations.
	Key uint64 `json:"key"`
	// Alloc is the processor allocation; the mapping uses at most this.
	Alloc int `json:"alloc"`
	// Procs is what the mapping actually uses (<= Alloc).
	Procs int `json:"procs"`
	// Region is the grid rectangle in grid mode (zero otherwise).
	Region machine.Rect `json:"region,omitzero"`
	// Mapping is the placed mapping (a detached copy).
	Mapping model.Mapping `json:"-"`
	// Summary is the human-readable mapping.
	Summary    string  `json:"mapping"`
	Throughput float64 `json:"throughput"`
	Latency    float64 `json:"latency"`
	// Path reports how the last placement was produced: memo (read from
	// the cached per-budget frontier, or a memoized solve at the
	// allocation), dp or incremental (a DP solve ran), greedy, grid, or
	// grid-memo.
	Path string `json:"path"`
	// Generation is the rebalance generation that last (re-)placed this
	// pipeline.
	Generation int64 `json:"generation"`
}

// pipeline is the internal per-admission record.
type pipeline struct {
	id       int64
	tenant   string
	chain    *model.Chain
	priority int
	min      int // minimum feasible allocation (rectangle-formable in grid mode)
	cap      int // allocation ceiling
	alloc    int

	// sig and key are the canonical structural signature and spec key at
	// the cap, hashed once at admission.
	sig, key uint64

	placed      bool
	placedAlloc int // allocation the current mapping was placed at
	region      machine.Rect
	placedDims  machine.Rect // region dims the current mapping was verified on
	mapping     model.Mapping
	throughput  float64
	latency     float64
	path        string
	placedGen   int64
}

// Stats is a point-in-time snapshot of the fleet counters. At quiesce,
// Admitted == Placed + Departed + Evicted.
type Stats struct {
	Generation  int64   `json:"generation"`
	PoolProcs   int     `json:"poolProcs"`
	FailedProcs int     `json:"failedProcs"`
	UsedProcs   int     `json:"usedProcs"`
	Utilization float64 `json:"utilization"`
	Placed      int     `json:"placed"`
	Admitted    int64   `json:"admitted"`
	Rejected    int64   `json:"rejected"`
	Departed    int64   `json:"departed"`
	Evicted     int64   `json:"evicted"`
	Rebalances  int64   `json:"rebalances"`
	// LastRebalanceMS is the wall-clock latency of the last rebalance.
	LastRebalanceMS float64    `json:"lastRebalanceMs"`
	Cache           CacheStats `json:"cache"`
}

// State is the /fleet JSON payload: stats plus per-pipeline placements.
type State struct {
	Stats
	Pipelines []Placement `json:"pipelines"`
}

// Fleet is the multi-pipeline scheduler. All methods are safe for
// concurrent use.
type Fleet struct {
	mu  sync.Mutex
	cfg Config

	grid  bool
	procs int // surviving pool size
	fail  int // processors failed so far

	nextID  int64
	members []*pipeline // admission order

	cache *Cache

	gen        int64
	admitted   int64
	rejected   int64
	departed   int64
	evicted    int64
	rebalances int64
	lastRebal  time.Duration

	lastCacheHits, lastCacheMiss int64 // for delta metric publication

	cAdmit, cReject, cDepart, cEvict, cRebal *live.Counter
	cCacheHit, cCacheMiss                    *live.Counter
	gPlaced, gPool, gFailed, gUsed, gUtil    *live.Gauge
	gGen, gHitRate                           *live.Gauge
	hRebal                                   *live.Histogram
}

// New builds an empty fleet over the configured pool.
func New(cfg Config) (*Fleet, error) {
	f := &Fleet{cfg: cfg, cache: NewCache()}
	if cfg.Grid.Rows != 0 || cfg.Grid.Cols != 0 {
		if err := cfg.Grid.Validate(); err != nil {
			return nil, err
		}
		f.grid = true
		if cfg.Pool.Procs == 0 || cfg.Pool.Procs > cfg.Grid.Procs() {
			f.cfg.Pool.Procs = cfg.Grid.Procs()
		}
	}
	if err := f.cfg.Pool.Validate(); err != nil {
		return nil, err
	}
	f.procs = f.cfg.Pool.Procs
	if reg := cfg.Registry; reg != nil {
		f.cAdmit = reg.Counter("fleet.admitted")
		f.cReject = reg.Counter("fleet.rejected")
		f.cDepart = reg.Counter("fleet.departed")
		f.cEvict = reg.Counter("fleet.evicted")
		f.cRebal = reg.Counter("fleet.rebalance")
		f.cCacheHit = reg.Counter("fleet.cache_hits")
		f.cCacheMiss = reg.Counter("fleet.cache_misses")
		f.gPlaced = reg.Gauge("fleet.pipelines_placed")
		f.gPool = reg.Gauge("fleet.pool_procs")
		f.gFailed = reg.Gauge("fleet.pool_failed_procs")
		f.gUsed = reg.Gauge("fleet.pool_used_procs")
		f.gUtil = reg.Gauge("fleet.pool_utilization")
		f.gGen = reg.Gauge("fleet.generation")
		f.gHitRate = reg.Gauge("fleet.cache_hit_rate")
	}
	if cfg.Registry != nil {
		f.hRebal = cfg.Registry.Histogram("fleet.rebalance_ms")
	}
	f.publishLocked()
	return f, nil
}

func (f *Fleet) now() time.Time {
	if f.cfg.Now != nil {
		return f.cfg.Now()
	}
	return time.Now()
}

// Cache exposes the solve cache for stats assertions.
func (f *Fleet) Cache() *Cache { return f.cache }

// Admit places a new pipeline, rebalancing the fleet around it. A spec
// that cannot fit — the pool lacks capacity even after evicting every
// lower-ranked pipeline — is rejected with no change to the fleet.
// Admission may preempt: lower-ranked pipelines are evicted when the
// newcomer outranks them and capacity requires it.
func (f *Fleet) Admit(s Spec) (Placement, error) {
	if s.Chain == nil {
		return Placement{}, fmt.Errorf("fleet: admit with nil chain")
	}
	if err := s.Chain.Validate(); err != nil {
		return Placement{}, err
	}
	pri := s.Priority
	if pri < 1 {
		pri = 1
	}

	f.mu.Lock()
	defer f.mu.Unlock()

	reject := func(format string, args ...any) (Placement, error) {
		f.rejected++
		f.cReject.Inc()
		f.publishLocked()
		return Placement{}, fmt.Errorf("fleet: "+format, args...)
	}

	if f.cfg.MaxPipelines > 0 && len(f.members) >= f.cfg.MaxPipelines {
		return reject("admit %q: %d pipelines already admitted (max %d)",
			s.Tenant, len(f.members), f.cfg.MaxPipelines)
	}
	min, err := minAllocProcs(s.Chain, f.cfg.Pool.MemPerProc)
	if err != nil {
		return reject("admit %q: %v", s.Tenant, err)
	}
	if f.grid {
		if min = rectCeil(f.cfg.Grid, min); min < 0 {
			return reject("admit %q: minimum allocation cannot form a rectangle on the %dx%d grid",
				s.Tenant, f.cfg.Grid.Rows, f.cfg.Grid.Cols)
		}
	}
	capProcs := f.cfg.Pool.Procs
	if s.MaxProcs > 0 && s.MaxProcs < capProcs {
		capProcs = s.MaxProcs
	}
	if min > capProcs {
		return reject("admit %q: needs at least %d processors, cap is %d", s.Tenant, min, capProcs)
	}
	if min > f.procs {
		return reject("admit %q: needs at least %d processors, %d survive in the pool",
			s.Tenant, min, f.procs)
	}

	capPl := model.Platform{Procs: capProcs, MemPerProc: f.cfg.Pool.MemPerProc}
	sig, key := adapt.CanonicalKeys(s.Chain, capPl)
	f.nextID++
	cand := &pipeline{
		id: f.nextID, tenant: s.Tenant, chain: s.Chain,
		priority: pri, min: min, cap: capProcs,
		sig: sig, key: key,
	}
	// Mutation-free pre-check: run the partition with the candidate
	// included (rank and partition only read min/priority); if the
	// candidate itself is the policy victim, reject without disturbing
	// any allocation.
	trial := append(append([]*pipeline(nil), f.members...), cand)
	_, cut := partition(rank(trial), f.procs)
	for _, v := range cut {
		if v == cand {
			return reject("admit %q: pool exhausted (needs %d, pool %d with %d pipelines placed)",
				s.Tenant, min, f.procs, len(f.members))
		}
	}
	prev := f.members
	f.members = trial
	victims := f.rebalanceLocked()

	for _, v := range victims {
		if v == cand {
			// The candidate survived the partition but lost later (grid
			// packing shrank it away, or its solve failed): restore the
			// previous membership and rebalance again so the survivors'
			// allocations are recomputed without the candidate. That
			// restore rebalance cannot evict — the previous configuration
			// was feasible — so its victims are discarded.
			f.members = prev
			for range f.rebalanceLocked() {
				// The restore rebalance should never evict (the previous
				// configuration was feasible); account defensively so the
				// admitted == placed + departed + evicted invariant can
				// never drift.
				f.evicted++
				f.cEvict.Inc()
			}
			f.rejected++
			f.cReject.Inc()
			f.publishLocked()
			return Placement{}, fmt.Errorf("fleet: admit %q: does not fit (needs %d, pool %d with %d pipelines placed)",
				s.Tenant, min, f.procs, len(prev))
		}
	}
	f.admitted++
	f.cAdmit.Inc()
	for range victims {
		f.evicted++
		f.cEvict.Inc()
	}
	f.publishLocked()
	return cand.placement(), nil
}

// Depart removes a pipeline voluntarily and rebalances the survivors.
func (f *Fleet) Depart(id int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	idx := -1
	for i, m := range f.members {
		if m.id == id {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("fleet: depart: no pipeline %d", id)
	}
	f.members = append(f.members[:idx:idx], f.members[idx+1:]...)
	f.departed++
	f.cDepart.Inc()
	victims := f.rebalanceLocked()
	for range victims {
		f.evicted++
		f.cEvict.Inc()
	}
	f.publishLocked()
	return nil
}

// FailProcs removes n processors from the pool (fail-stop) and rebalances:
// allocations shrink, victims chosen by the documented policy are evicted,
// and every surviving pipeline is re-placed feasibly on the smaller pool.
func (f *Fleet) FailProcs(n int) error {
	if n < 1 {
		return fmt.Errorf("fleet: fail %d processors, want >= 1", n)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if n >= f.procs {
		return fmt.Errorf("fleet: failing %d of %d processors leaves none to serve from", n, f.procs)
	}
	f.procs -= n
	f.fail += n
	victims := f.rebalanceLocked()
	for range victims {
		f.evicted++
		f.cEvict.Inc()
	}
	f.publishLocked()
	return nil
}

// RestoreProcs returns n previously failed processors to the pool and
// rebalances (allocations grow back).
func (f *Fleet) RestoreProcs(n int) error {
	if n < 1 {
		return fmt.Errorf("fleet: restore %d processors, want >= 1", n)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if n > f.fail {
		return fmt.Errorf("fleet: restore %d processors, only %d failed", n, f.fail)
	}
	f.procs += n
	f.fail -= n
	victims := f.rebalanceLocked()
	for range victims {
		// Growing the pool cannot evict, but count defensively.
		f.evicted++
		f.cEvict.Inc()
	}
	f.publishLocked()
	return nil
}

// rebalanceLocked re-partitions the pool over f.members, re-places every
// pipeline whose allocation (or grid region shape) changed, removes and
// returns the victims (callers account them), and bumps the generation.
// Pipelines whose solve fails are treated as victims too, so the fleet
// never retains an unplaceable member.
func (f *Fleet) rebalanceLocked() []*pipeline {
	start := f.now()
	var victims []*pipeline

	survivors, cut := partition(rank(f.members), f.procs)
	victims = append(victims, cut...)
	distribute(survivors, f.procs)

	if f.grid {
		survivors, cut = f.packGridLocked(survivors)
		victims = append(victims, cut...)
	}

	// Re-place the pipelines whose allocation or region shape moved; the
	// rest keep their mapping without touching a solver.
	placed := survivors[:0]
	for _, m := range survivors {
		if err := f.placeLocked(m); err != nil {
			victims = append(victims, m)
			continue
		}
		placed = append(placed, m)
	}
	survivors = placed

	// Keep admission order in f.members.
	alive := make(map[*pipeline]bool, len(survivors))
	for _, m := range survivors {
		alive[m] = true
	}
	kept := f.members[:0]
	for _, m := range f.members {
		if alive[m] {
			kept = append(kept, m)
		}
	}
	f.members = kept

	f.gen++
	f.rebalances++
	f.cRebal.Inc()
	f.lastRebal = f.now().Sub(start)
	f.hRebal.Observe(float64(f.lastRebal) / float64(time.Millisecond))
	return victims
}

// packGridLocked rounds allocations to rectangle-formable counts and packs
// the per-pipeline regions onto the grid as disjoint rectangles via
// machine.Pack. When the regions do not pack, the largest allocation is
// shrunk to the next smaller rectangle-formable count; when every
// allocation is already at its minimum, the lowest-ranked survivor is
// evicted. The loop is bounded: every iteration removes at least one
// processor from the request or one pipeline from the set.
func (f *Fleet) packGridLocked(survivors []*pipeline) (kept, victims []*pipeline) {
	g := f.cfg.Grid
	for _, m := range survivors {
		if a := rectFloor(g, m.alloc, m.min); a > 0 {
			m.alloc = a
		} else {
			m.alloc = m.min // min is rectangle-formable by admission
		}
	}
	ranked := rank(survivors)
	for len(ranked) > 0 {
		mods := make([]model.Module, len(ranked))
		for i, m := range ranked {
			mods[i] = model.Module{Lo: i, Hi: i + 1, Procs: m.alloc, Replicas: 1}
		}
		layout, ok := machine.Pack(model.Mapping{Modules: mods}, g)
		if ok {
			for _, pi := range layout.Instances {
				ranked[pi.Module].region = pi.Rect
			}
			return ranked, victims
		}
		// Shrink the largest shrinkable allocation by one rectangle step.
		shrunk := false
		var big *pipeline
		for _, m := range ranked {
			if m.alloc > m.min && (big == nil || m.alloc > big.alloc) {
				big = m
			}
		}
		if big != nil {
			if a := rectFloor(g, big.alloc-1, big.min); a > 0 {
				big.alloc = a
				shrunk = true
			}
		}
		if !shrunk {
			victims = append(victims, ranked[len(ranked)-1])
			ranked = ranked[:len(ranked)-1]
		}
	}
	return nil, victims
}

// placeLocked places one pipeline at its current allocation through the
// cache, keyed at its cap, skipping it entirely when neither the
// allocation nor, in grid mode, the region shape changed since its last
// placement.
func (f *Fleet) placeLocked(m *pipeline) error {
	if m.placed && m.placedAlloc == m.alloc && (!f.grid || sameShape(m.region, m.placedDims)) {
		return nil
	}
	capPl := model.Platform{Procs: m.cap, MemPerProc: f.cfg.Pool.MemPerProc}
	res, path, err := f.cache.Solve(m.chain, capPl, m.sig, m.key, m.alloc)
	if err != nil {
		return err
	}
	if f.grid {
		sub := machine.Grid{Rows: m.region.H, Cols: m.region.W}
		if _, ok := machine.Feasible(res.Mapping, machine.Constraints{Grid: sub}); !ok {
			pl := model.Platform{Procs: m.alloc, MemPerProc: f.cfg.Pool.MemPerProc}
			res, path, err = f.cache.SolveGrid(m.chain, pl, m.key, sub)
			if err != nil {
				return err
			}
		}
		m.placedDims = machine.Rect{H: m.region.H, W: m.region.W}
	}
	m.placed = true
	m.placedAlloc = m.alloc
	m.mapping = res.Mapping
	m.throughput = res.Throughput
	m.latency = res.Latency
	m.path = path
	m.placedGen = f.gen + 1 // rebalanceLocked bumps after placing
	return nil
}

// sameShape reports whether two regions have identical dimensions (a
// mapping feasible in one rectangle is feasible in any congruent one).
func sameShape(a, b machine.Rect) bool { return a.H == b.H && a.W == b.W }

// placement snapshots one pipeline for external use.
func (p *pipeline) placement() Placement {
	return Placement{
		ID: p.id, Tenant: p.tenant, Priority: p.priority,
		Key: p.key, Alloc: p.alloc, Procs: p.mapping.TotalProcs(),
		Region: p.region,
		Mapping: model.Mapping{Chain: p.chain,
			Modules: append([]model.Module(nil), p.mapping.Modules...)},
		Summary:    p.mapping.String(),
		Throughput: p.throughput, Latency: p.latency,
		Path: p.path, Generation: p.placedGen,
	}
}

// Placements snapshots every placed pipeline in admission order.
func (f *Fleet) Placements() []Placement {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]Placement, len(f.members))
	for i, m := range f.members {
		out[i] = m.placement()
	}
	return out
}

// Mapping returns the current mapping of one pipeline (a detached copy).
func (f *Fleet) Mapping(id int64) (model.Mapping, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, m := range f.members {
		if m.id == id {
			return model.Mapping{Chain: m.chain,
				Modules: append([]model.Module(nil), m.mapping.Modules...)}, true
		}
	}
	return model.Mapping{}, false
}

// Generation returns the current rebalance generation.
func (f *Fleet) Generation() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.gen
}

// Stats snapshots the fleet counters.
func (f *Fleet) Stats() Stats {
	f.mu.Lock()
	st := f.statsLocked()
	f.mu.Unlock()
	st.Cache = f.cache.Stats()
	return st
}

func (f *Fleet) statsLocked() Stats {
	used := 0
	for _, m := range f.members {
		used += m.alloc
	}
	st := Stats{
		Generation:  f.gen,
		PoolProcs:   f.procs,
		FailedProcs: f.fail,
		UsedProcs:   used,
		Placed:      len(f.members),
		Admitted:    f.admitted,
		Rejected:    f.rejected,
		Departed:    f.departed,
		Evicted:     f.evicted,
		Rebalances:  f.rebalances,
	}
	if f.procs > 0 {
		st.Utilization = float64(used) / float64(f.procs)
	}
	st.LastRebalanceMS = float64(f.lastRebal) / float64(time.Millisecond)
	return st
}

// State snapshots stats plus placements for the /fleet endpoint.
func (f *Fleet) State() State {
	f.mu.Lock()
	st := State{Stats: f.statsLocked(), Pipelines: make([]Placement, len(f.members))}
	for i, m := range f.members {
		st.Pipelines[i] = m.placement()
	}
	f.mu.Unlock()
	st.Cache = f.cache.Stats()
	return st
}

// publishLocked refreshes the fleet_* gauges and counter deltas.
func (f *Fleet) publishLocked() {
	if f.cfg.Registry == nil {
		return
	}
	st := f.statsLocked()
	f.gPlaced.Set(float64(st.Placed))
	f.gPool.Set(float64(st.PoolProcs))
	f.gFailed.Set(float64(st.FailedProcs))
	f.gUsed.Set(float64(st.UsedProcs))
	f.gUtil.Set(st.Utilization)
	f.gGen.Set(float64(st.Generation))
	cs := f.cache.Stats()
	if d := cs.Hits - f.lastCacheHits; d > 0 {
		f.cCacheHit.Add(d)
		f.lastCacheHits = cs.Hits
	}
	if d := cs.Misses - f.lastCacheMiss; d > 0 {
		f.cCacheMiss.Add(d)
		f.lastCacheMiss = cs.Misses
	}
	f.gHitRate.Set(cs.HitRate)
}

// Package tradeoff explores the latency-throughput trade-off of task
// chain mappings. The paper optimizes throughput and defers latency to
// Vondran's thesis [14]; this package is the corresponding extension:
// replication raises throughput but each data set's response time grows
// (smaller instances, more transfer hops), so the two objectives genuinely
// conflict and a Pareto frontier exists.
//
// Latency here is the pipeline traversal time of one data set: the sum of
// module response times of the mapping (model.Mapping.Latency).
//
// The implementation enumerates candidate mappings per clustering —
// exhaustively over processor vectors when a clustering has at most
// MaxExhaustiveModules modules (3 by default), and within ±2 processors
// per module of the throughput-optimal assignment otherwise — and
// filters the Pareto-dominated ones. It is exact only for chains of at
// most three tasks: the four-task radar and stereo chains get their
// four-module points from the neighbourhood, a heuristic.
// BestThroughputUnderLatency inherits the gap. Item 4 of ROADMAP.md
// plans an exact period/latency DP to replace the enumeration.
package tradeoff

import (
	"fmt"
	"sort"

	"pipemap/internal/dp"
	"pipemap/internal/model"
)

// Point is one Pareto-optimal mapping: no other candidate has both higher
// throughput and lower latency.
type Point struct {
	Mapping    model.Mapping
	Throughput float64
	Latency    float64
}

// Options configures the exploration.
type Options struct {
	// DisableReplication forces single-instance modules.
	DisableReplication bool
	// MaxExhaustiveModules bounds the clustering sizes enumerated
	// exhaustively (default 3).
	MaxExhaustiveModules int
	// MinThroughputGain collapses near-ties: a candidate joins the
	// frontier only if its throughput exceeds the previous point's by this
	// relative margin (default 1e-9, i.e. keep everything non-dominated).
	MinThroughputGain float64
}

// Frontier returns the Pareto frontier of (throughput up, latency down)
// over the mapping space, sorted by increasing latency.
func Frontier(c *model.Chain, pl model.Platform, opt Options) ([]Point, error) {
	cands, err := candidates(c, pl, opt)
	if err != nil {
		return nil, err
	}
	// Sort by latency ascending, then throughput descending; exact ties go
	// to the fewest processors, then to the mapping string, which is
	// unique among the deduplicated candidates. Sweep keeping mappings
	// that strictly improve throughput.
	sort.Slice(cands, func(i, j int) bool {
		a, b := &cands[i], &cands[j]
		if a.Latency != b.Latency {
			return a.Latency < b.Latency
		}
		if a.Throughput != b.Throughput {
			return a.Throughput > b.Throughput
		}
		if a.procs != b.procs {
			return a.procs < b.procs
		}
		return a.key < b.key
	})
	gain := opt.MinThroughputGain
	if gain <= 0 {
		gain = 1e-9
	}
	var frontier []Point
	bestThr := -1.0
	for _, p := range cands {
		if p.Throughput > bestThr*(1+gain)+1e-12 {
			frontier = append(frontier, p.Point)
			bestThr = p.Throughput
		}
	}
	// The sweep above yields latency-minimal representatives per
	// throughput level in increasing latency; it is the full frontier.
	return frontier, nil
}

// MinLatency returns the mapping minimizing single-data-set latency,
// computed exactly by the latency DP (dp.MinLatency): latency decomposes
// as a sum, so the optimum never replicates and admits an O(k^2 P^3)
// recurrence.
func MinLatency(c *model.Chain, pl model.Platform, opt Options) (model.Mapping, error) {
	return dp.MinLatency(c, pl)
}

// BestThroughputUnderLatency returns the maximum-throughput mapping whose
// latency does not exceed the bound.
func BestThroughputUnderLatency(c *model.Chain, pl model.Platform, bound float64, opt Options) (model.Mapping, error) {
	front, err := Frontier(c, pl, opt)
	if err != nil {
		return model.Mapping{}, err
	}
	var best *Point
	for i := range front {
		if front[i].Latency <= bound {
			best = &front[i]
		}
	}
	if best == nil {
		return model.Mapping{}, fmt.Errorf("tradeoff: no mapping has latency <= %g (minimum is %g)",
			bound, front[0].Latency)
	}
	return best.Mapping, nil
}

// candidate is one enumerated mapping with its processor count and its
// string, the deduplication key.
type candidate struct {
	Point
	procs int
	key   string
}

// candidates enumerates mappings across clusterings.
func candidates(c *model.Chain, pl model.Platform, opt Options) ([]candidate, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	maxEx := opt.MaxExhaustiveModules
	if maxEx <= 0 {
		maxEx = 3
	}
	var out []candidate
	seen := map[string]bool{}
	add := func(m model.Mapping) {
		key := m.String()
		if seen[key] {
			return
		}
		seen[key] = true
		out = append(out, candidate{
			Point: Point{Mapping: m, Throughput: m.Throughput(), Latency: m.Latency()},
			procs: m.TotalProcs(), key: key,
		})
	}
	for _, spans := range model.AllClusterings(c.Len()) {
		l := len(spans)
		mins := make([]int, l)
		repl := make([]bool, l)
		feasible := true
		for i, sp := range spans {
			min := c.ModuleMinProcs(sp.Lo, sp.Hi, pl.MemPerProc)
			if min < 0 || min > pl.Procs {
				feasible = false
				break
			}
			mins[i] = min
			repl[i] = c.ModuleReplicable(sp.Lo, sp.Hi) && !opt.DisableReplication
		}
		if !feasible {
			continue
		}
		build := func(raw []int) model.Mapping {
			mods := make([]model.Module, l)
			for i, sp := range spans {
				// Enumerate replication explicitly: for a given raw count
				// we consider both the maximal replication split and the
				// single-instance variant, since low replication can be
				// Pareto-better on latency.
				r := model.SplitReplicas(raw[i], mins[i], repl[i])
				mods[i] = model.Module{Lo: sp.Lo, Hi: sp.Hi,
					Procs: r.ProcsPerInstance, Replicas: r.Replicas}
			}
			return model.Mapping{Chain: c, Modules: mods}
		}
		buildSingle := func(raw []int) model.Mapping {
			mods := make([]model.Module, l)
			for i, sp := range spans {
				mods[i] = model.Module{Lo: sp.Lo, Hi: sp.Hi, Procs: raw[i], Replicas: 1}
			}
			return model.Mapping{Chain: c, Modules: mods}
		}
		if l <= maxEx {
			raw := make([]int, l)
			var rec func(i, used int)
			rec = func(i, used int) {
				if i == l {
					add(build(raw))
					add(buildSingle(raw))
					return
				}
				for p := mins[i]; used+p <= pl.Procs; p++ {
					raw[i] = p
					rec(i+1, used+p)
				}
			}
			rec(0, 0)
			continue
		}
		// Larger clusterings: seed from the throughput-optimal assignment
		// and perturb.
		dm, err := dp.AssignClustered(c, pl, spans, dp.Options{DisableReplication: opt.DisableReplication})
		if err != nil {
			continue
		}
		base := make([]int, l)
		for i, mod := range dm.Modules {
			base[i] = mod.Procs * mod.Replicas
		}
		var rec func(i int, raw []int, used int)
		rec = func(i int, raw []int, used int) {
			if used > pl.Procs {
				return
			}
			if i == l {
				add(build(raw))
				add(buildSingle(raw))
				return
			}
			for d := -2; d <= 2; d++ {
				p := base[i] + d
				if p < mins[i] {
					continue
				}
				raw[i] = p
				rec(i+1, raw, used+p)
			}
		}
		rec(0, make([]int, l), 0)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("tradeoff: no feasible mappings for %d tasks on %d processors",
			c.Len(), pl.Procs)
	}
	return out, nil
}

package machine

import (
	"fmt"
	"sort"

	"pipemap/internal/dp"
	"pipemap/internal/model"
)

// Constraints bundles the machine-level feasibility rules applied on top
// of the abstract platform model.
type Constraints struct {
	// Grid is the processor array every module instance must occupy a
	// rectangle of.
	Grid Grid
	// Systolic additionally routes logical pathways between communicating
	// instances and enforces the per-link capacity.
	Systolic bool
	// PathwayCapacity is the per-link pathway limit in systolic mode
	// (DefaultPathwayCapacity if zero).
	PathwayCapacity int
	// Torus enables wraparound pathway routing (the iWarp array is a
	// torus); mesh routing otherwise.
	Torus bool
}

// Feasible reports whether a mapping satisfies the constraints, returning
// the packed layout when it does.
func Feasible(m model.Mapping, cons Constraints) (Layout, bool) {
	layout, ok := Pack(m, cons.Grid)
	if !ok {
		return Layout{}, false
	}
	if cons.Systolic {
		rep := RoutePathways(m, layout, RoutingOptions{
			Capacity: cons.PathwayCapacity, Torus: cons.Torus,
		})
		if !rep.Feasible {
			return Layout{}, false
		}
	}
	return layout, true
}

// FeasibleOptimal finds the best mapping that satisfies the machine
// constraints: candidate mappings are enumerated per clustering
// (exhaustively over processor vectors when the module count is small,
// otherwise around the DP optimum), ranked by predicted throughput and
// then by fewest processors, and the best feasible one is returned with
// its layout.
func FeasibleOptimal(c *model.Chain, pl model.Platform, cons Constraints, opt dp.Options) (model.Mapping, Layout, error) {
	if err := c.Validate(); err != nil {
		return model.Mapping{}, Layout{}, err
	}
	if err := cons.Grid.Validate(); err != nil {
		return model.Mapping{}, Layout{}, err
	}
	if cons.Grid.Procs() < pl.Procs {
		pl.Procs = cons.Grid.Procs()
	}

	type cand struct {
		m     model.Mapping
		thr   float64
		procs int
		key   string
	}
	var cands []cand
	seen := map[string]bool{}
	add := func(m model.Mapping) {
		key := m.String()
		if seen[key] {
			return
		}
		seen[key] = true
		cands = append(cands, cand{m, m.Throughput(), m.TotalProcs(), key})
	}

	clusterings := model.AllClusterings(c.Len())
	if opt.DisableClustering {
		clusterings = [][]model.Span{model.Singletons(c.Len())}
	}
	for _, spans := range clusterings {
		l := len(spans)
		mins := make([]int, l)
		repl := make([]bool, l)
		ok := true
		for i, sp := range spans {
			min := c.ModuleMinProcs(sp.Lo, sp.Hi, pl.MemPerProc)
			if min < 0 || min > pl.Procs {
				ok = false
				break
			}
			mins[i] = min
			repl[i] = c.ModuleReplicable(sp.Lo, sp.Hi) && !opt.DisableReplication
		}
		if !ok {
			continue
		}
		build := func(raw []int) model.Mapping {
			mods := make([]model.Module, l)
			for i, sp := range spans {
				r := model.SplitReplicas(raw[i], mins[i], repl[i])
				mods[i] = model.Module{Lo: sp.Lo, Hi: sp.Hi,
					Procs: r.ProcsPerInstance, Replicas: r.Replicas}
			}
			return model.Mapping{Chain: c, Modules: mods}
		}
		if l <= 3 {
			// Exhaustive over raw processor vectors.
			raw := make([]int, l)
			var rec func(i, used int)
			rec = func(i, used int) {
				if i == l {
					add(build(raw))
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
		// Larger module counts: DP optimum for this clustering plus a
		// neighbourhood of raw-count perturbations.
		dm, err := dp.AssignClustered(c, pl, spans, opt)
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
				return
			}
			for d := -3; d <= 3; d++ {
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
	if len(cands) == 0 {
		return model.Mapping{}, Layout{}, fmt.Errorf("machine: no candidate mappings for %d tasks on %d processors",
			c.Len(), pl.Procs)
	}
	// Exact throughput ties go to the fewest processors, then to the
	// mapping string, which is unique among the deduplicated candidates:
	// the pick never depends on enumeration order.
	sort.Slice(cands, func(i, j int) bool {
		a, b := &cands[i], &cands[j]
		if a.thr != b.thr {
			return a.thr > b.thr
		}
		if a.procs != b.procs {
			return a.procs < b.procs
		}
		return a.key < b.key
	})
	for _, cd := range cands {
		if layout, ok := Feasible(cd.m, cons); ok {
			return cd.m, layout, nil
		}
	}
	return model.Mapping{}, Layout{}, fmt.Errorf("machine: no feasible mapping on %dx%d grid",
		cons.Grid.Rows, cons.Grid.Cols)
}

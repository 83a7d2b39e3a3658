package greedy

import (
	"fmt"
	"time"

	"pipemap/internal/model"
)

// Map computes a full mapping — clustering, replication and processor
// assignment — with the two-phase heuristic of section 4.2: an approximate
// greedy assignment on singleton modules determines the clustering, which
// is then fixed while a second greedy pass (optionally with backtracking)
// produces the final assignment.
func Map(c *model.Chain, pl model.Platform, opt Options) (model.Mapping, error) {
	if err := c.Validate(); err != nil {
		return model.Mapping{}, err
	}
	if err := pl.Validate(); err != nil {
		return model.Mapping{}, err
	}
	start := time.Now()
	spans := model.Singletons(c.Len())
	if !opt.DisableClustering {
		var err error
		spans, err = Cluster(c, pl, opt)
		if err != nil {
			return model.Mapping{}, err
		}
	}
	m, err := Assign(c, pl, spans, opt)
	if err != nil {
		return model.Mapping{}, err
	}
	if opt.Trace.Enabled() || opt.Metrics.Enabled() {
		opt.Trace.SpanArgs("greedy", "map", 0, start, time.Since(start),
			map[string]any{"k": c.Len(), "P": pl.Procs, "modules": len(spans)})
		opt.Metrics.Histogram("greedy.map_seconds").Observe(time.Since(start).Seconds())
	}
	return m, nil
}

// Cluster runs the approximate clustering phase: greedy-assign processors
// to singleton modules, then sweep adjacent module pairs, merging a pair
// whenever the merged module on the pair's combined processors responds
// faster than the slower of the two separate modules; after merging, test
// each merged module for profitable splits. The sweep repeats until a pass
// makes no change.
func Cluster(c *model.Chain, pl model.Platform, opt Options) ([]model.Span, error) {
	start := time.Now()
	var mergeTests, splitTests, passes int64
	spans := model.Singletons(c.Len())
	// Approximate assignment to seed the merge decisions.
	raw, s, err := assignRaw(c, pl, spans, opt)
	if err != nil {
		// If even singletons do not fit (memory minimums exceed P), try
		// merged prefixes: fall back to coarser feasible clusterings by
		// merging everything — the assignment phase will report a precise
		// error if nothing fits.
		return clusterFallback(c, pl, opt)
	}
	for pass := 0; pass < len(spans); pass++ {
		passes++
		changed := false
		// Merge sweep.
		for i := 0; i+1 < len(spans); {
			mergeTests++
			if mergeImproves(c, pl, s, spans, raw, i, opt) {
				newHi := spans[i+1].Hi
				spans = append(spans[:i+1], spans[i+2:]...)
				spans[i].Hi = newHi
				raw, s, err = assignRaw(c, pl, spans, opt)
				if err != nil {
					return nil, err
				}
				changed = true
			} else {
				i++
			}
		}
		// Split sweep: test breaking each multi-task module at each
		// internal edge.
		for i := 0; i < len(spans); i++ {
			sp := spans[i]
			if sp.Hi-sp.Lo < 2 {
				continue
			}
			splitTests++
			cut, ok := splitImproves(c, pl, spans, raw, i, opt)
			if ok {
				ns := make([]model.Span, 0, len(spans)+1)
				ns = append(ns, spans[:i]...)
				ns = append(ns, model.Span{Lo: sp.Lo, Hi: cut}, model.Span{Lo: cut, Hi: sp.Hi})
				ns = append(ns, spans[i+1:]...)
				if r2, s2, err2 := assignRaw(c, pl, ns, opt); err2 == nil {
					spans, raw, s = ns, r2, s2
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	if opt.Trace.Enabled() || opt.Metrics.Enabled() {
		opt.Trace.SpanArgs("greedy", "cluster", 0, start, time.Since(start),
			map[string]any{"passes": passes, "merge_tests": mergeTests,
				"split_tests": splitTests, "modules": len(spans)})
		opt.Metrics.Counter("greedy.cluster.merge_tests").Add(mergeTests)
		opt.Metrics.Counter("greedy.cluster.split_tests").Add(splitTests)
		opt.Metrics.Counter("greedy.cluster.passes").Add(passes)
	}
	return spans, nil
}

// assignRaw runs the greedy loop on a clustering and returns the raw
// per-module processor counts along with the evaluation state.
func assignRaw(c *model.Chain, pl model.Platform, spans []model.Span, opt Options) ([]int, *state, error) {
	mc := model.CollapseClustering(c, spans)
	s, err := newState(mc, pl, opt)
	if err != nil {
		return nil, nil, err
	}
	raw := greedyLoop(s, opt)
	return raw, s, nil
}

// mergeImproves decides whether modules i and i+1 of the clustering should
// be merged, given the current approximate processor counts: compare the
// bottleneck contribution of the pair when separate against the merged
// module running on their combined processors.
func mergeImproves(c *model.Chain, pl model.Platform, s *state, spans []model.Span, raw []int, i int, opt Options) bool {
	combined := raw[i] + raw[i+1]
	lo, hi := spans[i].Lo, spans[i+1].Hi
	min := c.ModuleMinProcs(lo, hi, pl.MemPerProc)
	if min < 0 || min > combined {
		return false
	}
	// Effective neighbour counts for edge costs.
	effOf := func(j int) int {
		r := model.SplitReplicas(raw[j], s.min[j], s.repl[j])
		return r.ProcsPerInstance
	}
	// Separate: the pair's worse effective response, including the edge
	// between them and the edges to the outside.
	sepWorst := 0.0
	for _, j := range []int{i, i + 1} {
		rj := model.SplitReplicas(raw[j], s.min[j], s.repl[j])
		f := s.mc.Tasks[j].Exec.Eval(rj.ProcsPerInstance)
		if j > 0 {
			f += s.mc.ECom[j-1].Eval(effOf(j-1), rj.ProcsPerInstance)
		}
		if j < len(raw)-1 {
			f += s.mc.ECom[j].Eval(rj.ProcsPerInstance, effOf(j+1))
		}
		f /= float64(rj.Replicas)
		if f > sepWorst {
			sepWorst = f
		}
	}
	// Merged: composed exec (internal redistribution replaces the external
	// edge), on the combined processors with maximal replication.
	rm := model.SplitReplicas(combined, min, c.ModuleReplicable(lo, hi) && !opt.DisableReplication)
	if rm.Replicas == 0 {
		return false
	}
	f := c.ModuleExec(lo, hi).Eval(rm.ProcsPerInstance)
	if i > 0 {
		f += c.ECom[lo-1].Eval(effOf(i-1), rm.ProcsPerInstance)
	}
	if i+1 < len(raw)-1 {
		f += c.ECom[hi-1].Eval(rm.ProcsPerInstance, effOf(i+2))
	}
	f /= float64(rm.Replicas)
	return f < sepWorst
}

// splitImproves decides whether module i should be split at some internal
// edge, given its current processor count: it searches cut points and
// processor divisions whose worse half beats the module's current
// effective response. It returns the best cut task index and whether a
// profitable split exists.
func splitImproves(c *model.Chain, pl model.Platform, spans []model.Span, raw []int, i int, opt Options) (int, bool) {
	sp := spans[i]
	p := raw[i]
	min := c.ModuleMinProcs(sp.Lo, sp.Hi, pl.MemPerProc)
	rm := model.SplitReplicas(p, min, c.ModuleReplicable(sp.Lo, sp.Hi) && !opt.DisableReplication)
	if rm.Replicas == 0 {
		return 0, false
	}
	cur := c.ModuleExec(sp.Lo, sp.Hi).Eval(rm.ProcsPerInstance) / float64(rm.Replicas)
	bestCut, best := 0, cur
	for cut := sp.Lo + 1; cut < sp.Hi; cut++ {
		minA := c.ModuleMinProcs(sp.Lo, cut, pl.MemPerProc)
		minB := c.ModuleMinProcs(cut, sp.Hi, pl.MemPerProc)
		if minA < 0 || minB < 0 || minA+minB > p {
			continue
		}
		for pa := minA; pa <= p-minB; pa++ {
			pb := p - pa
			ra := model.SplitReplicas(pa, minA, c.ModuleReplicable(sp.Lo, cut) && !opt.DisableReplication)
			rb := model.SplitReplicas(pb, minB, c.ModuleReplicable(cut, sp.Hi) && !opt.DisableReplication)
			if ra.Replicas == 0 || rb.Replicas == 0 {
				continue
			}
			fa := c.ModuleExec(sp.Lo, cut).Eval(ra.ProcsPerInstance)
			fb := c.ModuleExec(cut, sp.Hi).Eval(rb.ProcsPerInstance)
			edge := c.ECom[cut-1].Eval(ra.ProcsPerInstance, rb.ProcsPerInstance)
			fa = (fa + edge) / float64(ra.Replicas)
			fb = (fb + edge) / float64(rb.Replicas)
			worse := fa
			if fb > worse {
				worse = fb
			}
			if worse < best {
				best, bestCut = worse, cut
			}
		}
	}
	return bestCut, bestCut != 0
}

// clusterFallback handles chains whose singleton clustering is infeasible
// (per-task minimums exceed the platform): search coarser clusterings from
// fewest modules upward and return the first that fits.
func clusterFallback(c *model.Chain, pl model.Platform, opt Options) ([]model.Span, error) {
	all := model.AllClusterings(c.Len())
	var best []model.Span
	for _, spans := range all {
		if _, _, err := assignRaw(c, pl, spans, opt); err == nil {
			if best == nil || len(spans) > len(best) {
				best = spans
			}
		}
	}
	if best == nil {
		return nil, fmt.Errorf("greedy: no clustering of %d tasks fits on %d processors",
			c.Len(), pl.Procs)
	}
	return best, nil
}

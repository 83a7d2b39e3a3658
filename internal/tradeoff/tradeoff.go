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
// The mapping space is every clustering and processor vector, with
// either every module maximally replicated (section 3.2) or every module
// a single instance. The frontier is exact over it: dp.LatencySweep runs
// the one DP engine for latency under a falling period cap, once with
// maximal replication and once without, and this package merges the two
// sweeps.
package tradeoff

import (
	"fmt"
	"math"
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
	// MinThroughputGain collapses near-ties for display: a point joins the
	// frontier only if its throughput exceeds the previous point's by this
	// relative margin (default 1e-9, i.e. keep everything non-dominated).
	// BestThroughputUnderLatency ignores it.
	MinThroughputGain float64
}

// Frontier returns the Pareto frontier of (throughput up, latency down)
// over the mapping space, sorted by increasing latency.
func Frontier(c *model.Chain, pl model.Platform, opt Options) ([]Point, error) {
	pts, err := sweep(c, pl, opt, math.Inf(1))
	if err != nil {
		return nil, err
	}
	gain := opt.MinThroughputGain
	if gain <= 0 {
		gain = 1e-9
	}
	var frontier []Point
	bestThr := -1.0
	for _, p := range pts {
		if p.Throughput > bestThr*(1+gain)+1e-12 {
			frontier = append(frontier, p)
			bestThr = p.Throughput
		}
	}
	return frontier, nil
}

// MinLatency returns the mapping minimizing single-data-set latency,
// computed exactly by dp.MinLatency: the optimum never needs replication.
func MinLatency(c *model.Chain, pl model.Platform, opt Options) (model.Mapping, error) {
	return dp.MinLatency(c, pl)
}

// BestThroughputUnderLatency returns the maximum-throughput mapping whose
// latency does not exceed the bound, the least-latency one among equals.
// It searches every swept mapping, so opt.MinThroughputGain, a display
// filter, cannot hide a faster one.
func BestThroughputUnderLatency(c *model.Chain, pl model.Platform, bound float64, opt Options) (model.Mapping, error) {
	pts, err := sweep(c, pl, opt, bound)
	if err != nil {
		return model.Mapping{}, err
	}
	var best *Point
	for i := range pts {
		if p := &pts[i]; p.Latency <= bound && (best == nil || p.Throughput > best.Throughput) {
			best = p
		}
	}
	if best == nil {
		return model.Mapping{}, fmt.Errorf("tradeoff: no mapping has latency <= %g (minimum is %g)",
			bound, pts[0].Latency)
	}
	return best.Mapping, nil
}

// sweep returns the mappings of dp.LatencySweep under the latency bound
// with maximal replication (unless opt.DisableReplication) and without,
// sorted by latency ascending, then throughput descending; exact ties go
// to the fewest processors, then to the mapping string. Every
// Pareto-optimal mapping of the space within the bound, or one tied with
// it in both values, is among them, and so is each sweep's first mapping,
// the least-latency one, even over the bound.
func sweep(c *model.Chain, pl model.Platform, opt Options, bound float64) ([]Point, error) {
	ms, err := dp.LatencySweep(c, pl, dp.Options{DisableReplication: true}, bound)
	if err != nil {
		return nil, err
	}
	if !opt.DisableReplication {
		repl, err := dp.LatencySweep(c, pl, dp.Options{}, bound)
		if err != nil {
			return nil, err
		}
		ms = append(ms, repl...)
	}
	pts := make([]Point, len(ms))
	for i, m := range ms {
		pts[i] = Point{Mapping: m, Throughput: m.Throughput(), Latency: m.Latency()}
	}
	sort.Slice(pts, func(i, j int) bool {
		a, b := &pts[i], &pts[j]
		if a.Latency != b.Latency {
			return a.Latency < b.Latency
		}
		if a.Throughput != b.Throughput {
			return a.Throughput > b.Throughput
		}
		if pa, pb := a.Mapping.TotalProcs(), b.Mapping.TotalProcs(); pa != pb {
			return pa < pb
		}
		return a.Mapping.String() < b.Mapping.String()
	})
	return pts, nil
}

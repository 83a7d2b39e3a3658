package dp

import (
	"fmt"
	"math"
	"slices"

	"pipemap/internal/model"
)

// MinLatency computes the mapping that minimizes one data set's pipeline
// traversal time (model.Mapping.Latency, the sum of module response
// times) — the objective Ramaswamy et al. optimize and the one the paper
// defers to Vondran's thesis. It is one latency solve of the Solver
// without a period cap, with replication disabled: for any replicated
// mapping, the single-instance mapping at the same per-instance counts
// has the same latency on fewer processors, so this is the optimum over
// both replication settings.
func MinLatency(c *model.Chain, pl model.Platform) (model.Mapping, error) {
	s, err := NewSolver(c, pl, Options{DisableReplication: true})
	if err != nil {
		return model.Mapping{}, err
	}
	m, err := s.latencySolve(inf)
	if err != nil {
		return model.Mapping{}, err
	}
	m.Modules = slices.Clone(m.Modules)
	return m, nil
}

// LatencySweep traces the period/latency trade-off of the mappings one
// Solver built with opt can place, by an ε-constraint sweep over the
// period: the least-latency mapping, then again and again the
// least-latency mapping whose period is below the previous mapping's,
// until none fits. Along the returned list latency never decreases and
// period strictly decreases, so it starts at the minimum latency and ends
// at the minimum period. Every mapping of the space is matched by one on
// the list with no larger latency and no larger period, so the list holds
// the whole Pareto frontier (one mapping per exact tie).
//
// The sweep stops after the first mapping whose latency exceeds bound: no
// later one can fit it. Pass +Inf for the whole trade-off.
//
// The cap excludes a period p by the next float below p. The period test
// adds each module's f/r in model.Mapping.EffectiveResponseTimes'
// arithmetic, so each solve strictly advances; a mapping over its cap
// would mean the two disagree, and is an error rather than an endless
// sweep.
func LatencySweep(c *model.Chain, pl model.Platform, opt Options, bound float64) ([]model.Mapping, error) {
	s, err := NewSolver(c, pl, opt)
	if err != nil {
		return nil, err
	}
	var out []model.Mapping
	for T := inf; ; {
		m, err := s.latencySolve(T)
		if err != nil {
			if out == nil {
				return nil, err
			}
			return out, nil
		}
		m.Modules = slices.Clone(m.Modules)
		out = append(out, m)
		_, period := m.Bottleneck()
		if period > T {
			return nil, fmt.Errorf("dp: latency solve under period cap %g returned period %g", T, period)
		}
		if m.Latency() > bound {
			return out, nil
		}
		T = math.Nextafter(period, math.Inf(-1))
	}
}

// latencySolve re-solves every layer for the latency objective under
// period cap T: it returns the least-latency mapping among those whose
// every module has f/r <= T, the first of equal ones in scan's order.
// Seeds, dominance, live lists and choice pointers are the throughput
// solve's: a prefix with fewer processors and no larger sum admits every
// continuation the other does at no greater cost, as for the maximum.
func (s *Solver) latencySolve(T float64) (model.Mapping, error) {
	s.latency, s.periodCap = true, T
	return s.run(0, true, s.opt.instrument())
}

package dp

import (
	"fmt"

	"pipemap/internal/model"
	"pipemap/internal/obs"
	"pipemap/internal/obs/live"
)

// Options configures the full mapping DP.
type Options struct {
	// DisableReplication forces every module to run as a single instance.
	DisableReplication bool
	// DisableClustering forces every task into its own module.
	DisableClustering bool
	// Trace receives per-layer solver spans (per-layer timing, states
	// evaluated, prune counts); nil disables tracing.
	Trace *obs.Tracer
	// Metrics receives solver counters and timing histograms; nil disables.
	Metrics *live.Registry
}

// MapChain computes the optimal mapping of the chain — clustering tasks
// into modules, replicating modules, and assigning processors — per
// section 3.3 of the paper, on a fresh Solver. Options.DisableClustering
// restricts the modules to single tasks, which is the processor
// assignment of sections 3.1 (with DisableReplication) and 3.2. Time is
// O(P^4 k^3) and memory O(P^3 k^2) in the worst case (the paper reports
// O(P^4 k^2); the extra factor of k comes from carrying the span of the
// open module explicitly, which keeps the recurrence direct). Practical
// for k <= 8 on P <= 64; use the greedy heuristic beyond that. The solve
// is capped by its incumbent (see Solver), which skips the states already
// slower than a complete mapping it holds and returns exactly the
// mapping an uncapped NewSolver's Solve returns.
func MapChain(c *model.Chain, pl model.Platform, opt Options) (model.Mapping, error) {
	return solveOnce(c, pl, opt, nil)
}

// solveOnce solves a fresh solver restricted to spans (nil: newSolver's
// default) and detaches the mapping from the solver's scratch, so the
// solver and its arenas can be collected. Nothing reads the tables again,
// so the solve is capped by its incumbent ("Capped cold solves" on
// Solver).
func solveOnce(c *model.Chain, pl model.Platform, opt Options, spans []model.Span) (model.Mapping, error) {
	s, err := newSolver(c, pl, opt, spans)
	if err != nil {
		return model.Mapping{}, err
	}
	s.capped = true
	m, err := s.Solve()
	if err != nil {
		return model.Mapping{}, err
	}
	m.Modules = append([]model.Module(nil), m.Modules...)
	return m, nil
}

// MapExhaustive enumerates all 2^(k-1) clusterings of the chain and solves
// each with AssignClustered, returning the best mapping. It is
// exponential in k and exists to cross-validate MapChain.
func MapExhaustive(c *model.Chain, pl model.Platform, opt Options) (model.Mapping, error) {
	var best model.Mapping
	bestThr := -1.0
	var lastErr error
	for _, spans := range model.AllClusterings(c.Len()) {
		m, err := AssignClustered(c, pl, spans, opt)
		if err != nil {
			lastErr = err
			continue
		}
		if thr := m.Throughput(); thr > bestThr {
			bestThr, best = thr, m
		}
	}
	if bestThr < 0 {
		return model.Mapping{}, fmt.Errorf("dp: no clustering is feasible: %w", lastErr)
	}
	return best, nil
}

// AssignClustered solves optimal processor assignment (with replication
// unless disabled) for a fixed clustering: the Solver with its modules
// restricted to the clustering's spans, capped by its incumbent as
// MapChain's solve is.
func AssignClustered(c *model.Chain, pl model.Platform, spans []model.Span, opt Options) (model.Mapping, error) {
	if !model.ValidClustering(spans, c.Len()) {
		return model.Mapping{}, fmt.Errorf("dp: invalid clustering %v for %d tasks", spans, c.Len())
	}
	return solveOnce(c, pl, opt, spans)
}

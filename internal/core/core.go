// Package core is the automatic mapping tool of the paper: given a chain
// of data parallel tasks with cost models and a target platform, it
// produces the throughput-optimal mapping — clustering, replication and
// processor assignment — using the dynamic programming algorithm
// (section 3) or the fast greedy heuristic (section 4), optionally subject
// to machine constraints (rectangular subarrays and systolic pathways,
// section 6.1). It corresponds to the tool integrated with the Fx
// compiler in the paper.
package core

import (
	"fmt"
	"time"

	"pipemap/internal/dp"
	"pipemap/internal/greedy"
	"pipemap/internal/machine"
	"pipemap/internal/model"
	"pipemap/internal/obs"
	"pipemap/internal/obs/live"
	"pipemap/internal/tradeoff"
)

// Algorithm selects the mapping algorithm.
type Algorithm int

const (
	// Auto uses dynamic programming when the instance is small enough for
	// the O(P^4 k^2) cost to be negligible and the greedy heuristic
	// otherwise. The estimate prices the whole table; a cold DP solve
	// (dp.MapChain) skips the states above its incumbent and often fills
	// far less of it, while the retained solvers of package adapt fill it
	// all.
	Auto Algorithm = iota
	// DP is the provably optimal dynamic programming algorithm.
	DP
	// Greedy is the O(Pk) heuristic with clustering refinement and bounded
	// backtracking.
	Greedy
)

func (a Algorithm) String() string {
	switch a {
	case DP:
		return "dp"
	case Greedy:
		return "greedy"
	default:
		return "auto"
	}
}

// autoDPBudget bounds P^4*k^3 for which Auto still picks the exact DP
// (about a second of compute).
const autoDPBudget = 5e9

// AutoAlgorithm is the Auto rule, the one place that chooses between the
// exact DP and the greedy heuristic: DP for k tasks on procs processors
// while P^4*k^3 stays within autoDPBudget, greedy beyond it. The estimate
// grows with procs, so an instance routed to DP is routed to DP at every
// smaller processor count too.
func AutoAlgorithm(k, procs int) Algorithm {
	p, kk := float64(procs), float64(k)
	if p*p*p*p*kk*kk*kk <= autoDPBudget {
		return DP
	}
	return Greedy
}

// Objective selects what the mapping tool optimizes.
type Objective int

const (
	// MaxThroughput maximizes data sets per second (the paper's objective).
	MaxThroughput Objective = iota
	// MinLatency minimizes one data set's traversal time (extension; the
	// latency DP never replicates).
	MinLatency
	// ThroughputUnderLatency maximizes throughput subject to
	// Request.LatencyBound.
	ThroughputUnderLatency
)

// Request describes one mapping problem.
type Request struct {
	// Chain is the task chain with cost models.
	Chain *model.Chain
	// Platform is the processor budget and memory capacity.
	Platform model.Platform
	// Algorithm selects DP, Greedy, or Auto.
	Algorithm Algorithm
	// DisableReplication forces single-instance modules.
	DisableReplication bool
	// DisableClustering keeps every task in its own module.
	DisableClustering bool
	// Machine optionally adds geometric feasibility constraints; when set,
	// the result carries a layout and the mapping is the best feasible one.
	Machine *machine.Constraints
	// Objective selects throughput (default), latency, or
	// latency-bounded throughput optimization.
	Objective Objective
	// LatencyBound is the latency budget in seconds for
	// ThroughputUnderLatency.
	LatencyBound float64
	// Trace receives solver spans (per-DP-layer timing, states evaluated,
	// prune counts; greedy phase spans); nil disables tracing.
	Trace *obs.Tracer
	// Metrics receives solver counters and timing histograms; nil disables.
	Metrics *live.Registry
}

// Result is the outcome of a mapping request.
type Result struct {
	// Mapping is the chosen mapping (feasible if Machine was set).
	Mapping model.Mapping
	// Algorithm is the algorithm actually used.
	Algorithm Algorithm
	// Throughput and Latency are the model-predicted metrics of Mapping.
	Throughput float64
	Latency    float64
	// Unconstrained is the optimal mapping ignoring machine constraints
	// (equal to Mapping when no constraints were given).
	Unconstrained model.Mapping
	// Layout is the placement on the grid when Machine was set.
	Layout *machine.Layout
}

// Remap re-solves a mapping request after lost processors have been
// removed from the platform: the degraded-mode companion to Map. When a
// runtime detects dead instances it calls Remap with the number of
// processors lost and rebuilds the pipeline from the returned mapping,
// which is optimal for the surviving machine (same DP/greedy machinery,
// smaller P). Memory and machine constraints are re-checked against the
// reduced budget, so a chain that no longer fits reports an error instead
// of a bogus mapping.
func Remap(req Request, lostProcs int) (Result, error) {
	if lostProcs < 0 {
		return Result{}, fmt.Errorf("core: negative processor loss %d", lostProcs)
	}
	if lostProcs >= req.Platform.Procs {
		return Result{}, fmt.Errorf("core: losing %d of %d processors leaves none to map onto",
			lostProcs, req.Platform.Procs)
	}
	req.Platform.Procs -= lostProcs
	return Map(req)
}

// Map solves a mapping request.
func Map(req Request) (Result, error) {
	if req.Chain == nil {
		return Result{}, fmt.Errorf("core: request has no chain")
	}
	if err := req.Chain.Validate(); err != nil {
		return Result{}, err
	}
	if err := req.Platform.Validate(); err != nil {
		return Result{}, err
	}
	if req.Trace.Enabled() || req.Metrics.Enabled() {
		start := time.Now()
		defer func() {
			req.Trace.SpanArgs("core", "map", 0, start, time.Since(start),
				map[string]any{"k": req.Chain.Len(), "P": req.Platform.Procs})
			req.Metrics.Histogram("core.map_seconds").Observe(time.Since(start).Seconds())
		}()
	}
	if req.Objective == MinLatency || req.Objective == ThroughputUnderLatency {
		// The latency solvers search every clustering on the abstract
		// platform; refuse what they would silently drop.
		switch {
		case req.Machine != nil:
			return Result{}, fmt.Errorf("core: latency objectives do not support Machine constraints")
		case req.DisableClustering:
			return Result{}, fmt.Errorf("core: latency objectives do not support DisableClustering")
		}
	}
	switch req.Objective {
	case MinLatency:
		m, err := dp.MinLatency(req.Chain, req.Platform)
		if err != nil {
			return Result{}, err
		}
		return Result{Mapping: m, Algorithm: DP, Throughput: m.Throughput(),
			Latency: m.Latency(), Unconstrained: m}, nil
	case ThroughputUnderLatency:
		if req.LatencyBound <= 0 {
			return Result{}, fmt.Errorf("core: ThroughputUnderLatency needs a positive LatencyBound")
		}
		m, err := tradeoff.BestThroughputUnderLatency(req.Chain, req.Platform,
			req.LatencyBound, tradeoff.Options{DisableReplication: req.DisableReplication})
		if err != nil {
			return Result{}, err
		}
		return Result{Mapping: m, Algorithm: DP, Throughput: m.Throughput(),
			Latency: m.Latency(), Unconstrained: m}, nil
	}

	algo := req.Algorithm
	if algo == Auto {
		algo = AutoAlgorithm(req.Chain.Len(), req.Platform.Procs)
	}

	var m model.Mapping
	var err error
	switch algo {
	case DP:
		m, err = dp.MapChain(req.Chain, req.Platform, dp.Options{
			DisableReplication: req.DisableReplication,
			DisableClustering:  req.DisableClustering,
			Trace:              req.Trace,
			Metrics:            req.Metrics,
		})
	default:
		m, err = greedy.Map(req.Chain, req.Platform, greedy.Options{
			DisableReplication: req.DisableReplication,
			DisableClustering:  req.DisableClustering,
			Backtrack:          2,
			Trace:              req.Trace,
			Metrics:            req.Metrics,
		})
	}
	if err != nil {
		return Result{}, err
	}

	res := Result{
		Mapping:       m,
		Algorithm:     algo,
		Throughput:    m.Throughput(),
		Latency:       m.Latency(),
		Unconstrained: m,
	}
	if req.Machine != nil {
		fm, layout, err := machine.FeasibleOptimal(req.Chain, req.Platform, *req.Machine, dp.Options{
			DisableReplication: req.DisableReplication,
			DisableClustering:  req.DisableClustering,
			Trace:              req.Trace,
			Metrics:            req.Metrics,
		})
		if err != nil {
			return Result{}, err
		}
		res.Mapping = fm
		res.Throughput = fm.Throughput()
		res.Latency = fm.Latency()
		res.Layout = &layout
	}
	return res, nil
}

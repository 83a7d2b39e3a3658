// Package greedy implements the fast heuristic mapping algorithm from
// section 4 of Subhlok & Vondran (PPoPP 1995).
//
// The core procedure Greedy(T, P) starts every module at its minimum
// processor count and repeatedly identifies the bottleneck module — the
// one with the largest effective response time — and adds one processor to
// whichever of the bottleneck, its predecessor, or its successor improves
// throughput the most (the neighbours matter because response time
// includes communication, which depends on their processor counts). The
// best assignment ever seen is retained. The procedure runs in O(Pk) time.
//
// Two provable regimes from the paper are available as variants:
//
//   - SlowestOnly adds processors to the bottleneck module only; by
//     Theorem 1 this is optimal when communication time increases
//     monotonically with the processor counts involved.
//   - Bounded backtracking (Theorem 2): when the cost functions are convex
//     and computation dominates communication, the plain greedy
//     over-allocates at most two processors per module, so a bounded
//     retract-and-redistribute post-pass recovers the optimum.
//
// Clustering is decided in a first approximate phase (section 4.2): run
// the greedy assignment on singleton modules, sweep adjacent pairs testing
// whether merging them improves their combined response, re-test splits,
// then re-run the assignment on the final clustering.
package greedy

import (
	"fmt"
	"math"
	"time"

	"pipemap/internal/model"
	"pipemap/internal/obs"
	"pipemap/internal/obs/live"
)

// Variant selects which modules are candidates for the next processor.
type Variant int

const (
	// Neighbors is the paper's main procedure: try the bottleneck module
	// and both neighbours, keep the best.
	Neighbors Variant = iota
	// SlowestOnly adds processors only to the bottleneck module
	// (Theorem 1's provably optimal regime).
	SlowestOnly
)

// Options configures the greedy mapper.
type Options struct {
	// Variant selects the candidate rule; default Neighbors.
	Variant Variant
	// DisableReplication forces single-instance modules.
	DisableReplication bool
	// DisableClustering skips the clustering phase of Map and keeps every
	// task in its own module.
	DisableClustering bool
	// Backtrack enables the bounded retract-and-redistribute post-pass,
	// retracting up to this many processors from a module at a time
	// (Theorem 2 suggests 2). Zero disables backtracking.
	Backtrack int
	// MaxBacktrackRounds caps post-pass sweeps; zero means a small default.
	MaxBacktrackRounds int
	// Trace receives solver spans (assignment and clustering phases with
	// evaluation counts); nil disables tracing.
	Trace *obs.Tracer
	// Metrics receives solver counters; nil disables.
	Metrics *live.Registry
}

// state evaluates candidate assignments for one module chain. It caches
// the per-module minimums, replicability and composed exec functions so a
// throughput evaluation is O(k) with no allocation.
type state struct {
	mc   *model.Chain
	pl   model.Platform
	min  []int
	repl []bool
	raw  []int
	// scratch for effective counts.
	eff  []int
	reps []int
	// evals counts throughput evaluations, the unit of greedy search work.
	evals int64
}

func newState(mc *model.Chain, pl model.Platform, opt Options) (*state, error) {
	k := mc.Len()
	s := &state{
		mc: mc, pl: pl,
		min:  make([]int, k),
		repl: make([]bool, k),
		raw:  make([]int, k),
		eff:  make([]int, k),
		reps: make([]int, k),
	}
	sum := 0
	for i := 0; i < k; i++ {
		min := mc.ModuleMinProcs(i, i+1, pl.MemPerProc)
		if min < 0 {
			return nil, fmt.Errorf("greedy: module %q does not fit in memory at any processor count",
				mc.Tasks[i].Name)
		}
		s.min[i] = min
		s.repl[i] = mc.Tasks[i].Replicable && !opt.DisableReplication
		s.raw[i] = min
		sum += min
	}
	if sum > pl.Procs {
		return nil, fmt.Errorf("greedy: chain needs at least %d processors, platform has %d",
			sum, pl.Procs)
	}
	return s, nil
}

// throughput evaluates the current raw assignment: 1 / max effective
// response. It also returns the bottleneck module index.
func (s *state) throughput() (float64, int) {
	s.evals++
	k := len(s.raw)
	for i := 0; i < k; i++ {
		r := model.SplitReplicas(s.raw[i], s.min[i], s.repl[i])
		s.eff[i] = r.ProcsPerInstance
		s.reps[i] = r.Replicas
	}
	worst, worstIdx := -1.0, 0
	for i := 0; i < k; i++ {
		f := s.mc.Tasks[i].Exec.Eval(s.eff[i])
		if i > 0 {
			f += s.mc.ECom[i-1].Eval(s.eff[i-1], s.eff[i])
		}
		if i < k-1 {
			f += s.mc.ECom[i].Eval(s.eff[i], s.eff[i+1])
		}
		f /= float64(s.reps[i])
		if f > worst {
			worst, worstIdx = f, i
		}
	}
	if worst <= 0 {
		return math.Inf(1), worstIdx
	}
	return 1 / worst, worstIdx
}

// tryAdd evaluates the throughput if one processor were added to module i.
func (s *state) tryAdd(i int) float64 {
	s.raw[i]++
	thr, _ := s.throughput()
	s.raw[i]--
	return thr
}

// used returns the total raw processors assigned.
func (s *state) used() int {
	sum := 0
	for _, p := range s.raw {
		sum += p
	}
	return sum
}

// Assign runs the greedy processor assignment on the given clustering of
// the chain (section 4.1). Pass model.Singletons(c.Len()) for per-task
// modules.
func Assign(c *model.Chain, pl model.Platform, spans []model.Span, opt Options) (model.Mapping, error) {
	if err := c.Validate(); err != nil {
		return model.Mapping{}, err
	}
	if err := pl.Validate(); err != nil {
		return model.Mapping{}, err
	}
	if !model.ValidClustering(spans, c.Len()) {
		return model.Mapping{}, fmt.Errorf("greedy: invalid clustering %v for %d tasks", spans, c.Len())
	}
	mc := model.CollapseClustering(c, spans)
	s, err := newState(mc, pl, opt)
	if err != nil {
		return model.Mapping{}, err
	}
	start := time.Now()
	raw := greedyLoop(s, opt)
	if opt.Backtrack > 0 {
		raw = backtrack(s, raw, opt)
	}
	if opt.Trace.Enabled() || opt.Metrics.Enabled() {
		opt.Trace.SpanArgs("greedy", "assign", 0, start, time.Since(start),
			map[string]any{"modules": len(spans), "P": pl.Procs, "evals": s.evals})
		opt.Metrics.Counter("greedy.evals").Add(s.evals)
		opt.Metrics.Counter("greedy.assigns").Inc()
		opt.Metrics.Histogram("greedy.assign_seconds").Observe(time.Since(start).Seconds())
	}
	return buildMapping(c, spans, s, raw), nil
}

// greedyLoop is the paper's core loop: starting from the minimums already
// in s.raw, add processors one at a time and return the best raw
// assignment encountered.
func greedyLoop(s *state, opt Options) []int {
	best := append([]int(nil), s.raw...)
	bestThr, _ := s.throughput()
	k := len(s.raw)
	for s.used() < s.pl.Procs {
		_, bottleneck := s.throughput()
		// Candidate modules whose extra processor could shrink the
		// bottleneck response.
		var cands []int
		switch opt.Variant {
		case SlowestOnly:
			cands = []int{bottleneck}
		default:
			cands = make([]int, 0, 3)
			// Order (self, pred, succ) makes the bottleneck win ties.
			cands = append(cands, bottleneck)
			if bottleneck > 0 {
				cands = append(cands, bottleneck-1)
			}
			if bottleneck < k-1 {
				cands = append(cands, bottleneck+1)
			}
		}
		bestCand, bestCandThr := -1, -1.0
		for _, cand := range cands {
			if thr := s.tryAdd(cand); thr > bestCandThr {
				bestCand, bestCandThr = cand, thr
			}
		}
		s.raw[bestCand]++
		if bestCandThr > bestThr {
			bestThr = bestCandThr
			copy(best, s.raw)
		}
	}
	return best
}

// backtrack is the bounded retract-and-redistribute post-pass: repeatedly
// try removing up to opt.Backtrack processors from one module and greedily
// re-adding the freed processors; keep any strict improvement.
func backtrack(s *state, raw []int, opt Options) []int {
	rounds := opt.MaxBacktrackRounds
	if rounds <= 0 {
		rounds = 4
	}
	copy(s.raw, raw)
	best := append([]int(nil), raw...)
	bestThr := evalRaw(s, best)
	k := len(best)
	for round := 0; round < rounds; round++ {
		improved := false
		for j := 0; j < k; j++ {
			for d := 1; d <= opt.Backtrack && best[j]-d >= s.min[j]; d++ {
				cand := append([]int(nil), best...)
				cand[j] -= d
				copy(s.raw, cand)
				// Re-add the freed processors greedily.
				sub := Options{Variant: opt.Variant, DisableReplication: opt.DisableReplication}
				cand = greedyLoop(s, sub)
				if thr := evalRaw(s, cand); thr > bestThr+1e-15 {
					bestThr, best = thr, cand
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}
	copy(s.raw, best)
	return best
}

func evalRaw(s *state, raw []int) float64 {
	copy(s.raw, raw)
	thr, _ := s.throughput()
	return thr
}

// buildMapping converts a raw per-module assignment into a model.Mapping
// with the replication split applied.
func buildMapping(c *model.Chain, spans []model.Span, s *state, raw []int) model.Mapping {
	mods := make([]model.Module, len(spans))
	for i, sp := range spans {
		r := model.SplitReplicas(raw[i], s.min[i], s.repl[i])
		mods[i] = model.Module{Lo: sp.Lo, Hi: sp.Hi, Procs: r.ProcsPerInstance, Replicas: r.Replicas}
	}
	return model.Mapping{Chain: c, Modules: mods}
}

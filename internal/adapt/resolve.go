package adapt

import (
	"time"

	"pipemap/internal/core"
	"pipemap/internal/model"
	"pipemap/internal/obs"
	"pipemap/internal/obs/live"
)

// dpOpsPerSecond calibrates the DP cost estimate P^4·k^3 to wall time; it
// matches core's Auto budget (5e9 ≈ one second of solve).
const dpOpsPerSecond = 5e9

// ResolveOptions carries the solver knobs of one budgeted re-solve.
type ResolveOptions struct {
	// Budget bounds the acceptable decision latency: when the estimated DP
	// solve time exceeds it, the greedy heuristic is used instead. Zero
	// falls back to core's Auto selection.
	Budget time.Duration
	// DisableReplication and DisableClustering are forwarded to the solver.
	DisableReplication bool
	DisableClustering  bool
	// Trace and Metrics receive solver spans and counters; nil disables.
	Trace   *obs.Tracer
	Metrics *live.Registry
}

// Resolve re-solves the mapping for a (refitted) chain on the surviving
// platform under a decision-latency budget, returning the solution and the
// measured solve time. The controller cannot afford a multi-second DP
// stall between decisions, so instances whose estimated DP cost exceeds the
// budget are routed to the greedy heuristic.
func Resolve(chain *model.Chain, pl model.Platform, opt ResolveOptions) (core.Result, time.Duration, error) {
	req := core.Request{
		Chain:              chain,
		Platform:           pl,
		DisableReplication: opt.DisableReplication,
		DisableClustering:  opt.DisableClustering,
		Trace:              opt.Trace,
		Metrics:            opt.Metrics,
	}
	if opt.Budget > 0 {
		p, k := float64(pl.Procs), float64(chain.Len())
		if p*p*p*p*k*k*k/dpOpsPerSecond > opt.Budget.Seconds() {
			req.Algorithm = core.Greedy
		} else {
			req.Algorithm = core.DP
		}
	}
	start := time.Now()
	res, err := core.Map(req)
	return res, time.Since(start), err
}

package dp

import (
	"fmt"
	"time"

	"pipemap/internal/obs"
	"pipemap/internal/obs/live"
)

// instrument bundles the solver's optional tracing/metrics sinks. The zero
// value (from Options with nil sinks) is disabled and all methods are
// no-ops, so instrumentation calls need no conditionals at the call sites.
type instrument struct {
	on      bool
	trace   *obs.Tracer
	metrics *live.Registry
}

func (o Options) instrument() instrument {
	return instrument{
		on:      o.Trace.Enabled() || o.Metrics.Enabled(),
		trace:   o.Trace,
		metrics: o.Metrics,
	}
}

// layer records one completed DP layer: a trace span plus aggregate
// counters. states is the number of DP cells written, transitions the
// number of candidate predecessor evaluations, and pruned the number of
// finite states dominance pruning removed from the completed layer.
func (in instrument) layer(layer int, start time.Time, states, transitions, pruned int64) {
	if !in.on {
		return
	}
	d := time.Since(start)
	in.trace.SpanArgs("dp", fmt.Sprintf("map_chain layer %d", layer), 0, start, d,
		map[string]any{"layer": layer, "states": states, "transitions": transitions, "pruned": pruned})
	in.metrics.Counter("dp.map_chain.layers").Inc()
	in.metrics.Counter("dp.map_chain.states").Add(states)
	in.metrics.Counter("dp.map_chain.transitions").Add(transitions)
	in.metrics.Counter("dp.map_chain.pruned").Add(pruned)
	in.metrics.Histogram("dp.map_chain.layer_seconds").Observe(d.Seconds())
}

// done records the overall solve span for one DP invocation.
func (in instrument) done(k, P int, start time.Time) {
	if !in.on {
		return
	}
	d := time.Since(start)
	in.trace.SpanArgs("dp", "map_chain", 0, start, d, map[string]any{"k": k, "P": P})
	in.metrics.Histogram("dp.map_chain.solve_seconds").Observe(d.Seconds())
}

// Package obs is the zero-dependency span-tracing layer: the solver trace
// in Chrome trace_event format (per-layer DP timing, states evaluated,
// prune counts), the simulator's virtual-time Gantt export, request traces
// that follow one submission through admission, queue wait and every
// pipeline stage attempt, the flight recorder that keeps the last of them,
// and the NDJSON span exporter. Metrics live in package obs/live.
//
// Every recorder is nil-safe: a nil *Tracer, *ReqTracer, *ReqTrace or
// *FlightRecorder is a valid "disabled" instrument whose recording methods
// are no-ops, so instrumented code paths need no conditional plumbing.
// Hot-path recording methods take only scalar arguments, which keeps the
// disabled case free of allocation (verified by alloc tests in this
// package).
//
// Traces are written in the Chrome trace_event JSON object format and load
// directly into chrome://tracing or https://ui.perfetto.dev. Wall-clock
// spans (solver, request traces) and virtual-time spans (simulator) share
// the format, so simulated and measured timelines render in the same
// viewer.
package obs

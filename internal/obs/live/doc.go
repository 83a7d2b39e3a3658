// Package live holds the repo's metrics: rolling-window instruments in
// one Registry, a pipeline health model, and an embeddable HTTP server
// exposing them while a pipeline runs.
//
// Package obs (the parent) holds span tracing: the solver trace file, the
// request traces and the flight recorder. This package answers the
// questions a scraper or dashboard asks about a *running* pipeline: what
// is the throughput right now, which stage is the bottleneck, how does the
// observed per-stage period compare to the model-predicted f_i/r_i, and is
// the pipeline nominal or degraded. The solvers record into the same
// Registry, so pipemap -metrics and /metrics print the same instruments.
//
// # Instruments
//
// Counter, Gauge and Histogram are windowed: a ring of time-bucketed slots
// over a configurable window (default 30s) yields rates and quantiles that
// track the recent past instead of the whole run, next to cumulative
// totals that never expire. Histograms bucket samples on one log-spaced
// layout (8 buckets per decade from 1ns). All instruments follow the obs
// contract: a nil instrument (or nil Registry/Monitor) is valid, disabled,
// and allocation-free on the hot path.
//
// Time is read through a Clock so the same instruments serve wall-clock
// pipelines (fxrt) and virtual-time replays (the simulator): a
// VirtualClock is advanced by the replayer instead of the scheduler.
//
// # Health model
//
// Monitor tracks one running pipeline. Stages report completions with
// their attempt latency, plus retries, timeouts, drops and instance
// deaths. Health() derives the paper's steady-state decomposition from the
// live window: each stage's observed period (mean attempt latency divided
// by live replicas — the observed f_i/r_i), the bottleneck stage (argmax
// observed period, the stage that bounds 1/max_i(f_i/r_i)), end-to-end
// windowed throughput and latency quantiles, and a nominal/degraded status
// with ready/not-ready semantics for orchestrators.
//
// # Server
//
// Server exposes a Monitor and optionally a Registry over HTTP:
//
//	/metrics      Prometheus text exposition
//	/healthz      liveness (200 while serving)
//	/readyz       readiness (503 before start or while degraded)
//	/pipeline     health model as JSON
//	/events       NDJSON stream of fault events (deaths, drops, retries)
//	/debug/pprof  standard pprof handlers
package live

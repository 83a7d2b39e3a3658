// Package pipemap is a library for optimally mapping pipelines of data
// parallel tasks onto parallel machines, reproducing Subhlok & Vondran,
// "Optimal Mapping of Sequences of Data Parallel Tasks" (PPoPP 1995).
//
// An application is a linear chain of data parallel tasks processing a
// stream of data sets. Each task has an execution time that is a function
// of its processor count; adjacent tasks communicate through internal
// redistributions (same processors) or external transfers (disjoint
// processors). A mapping clusters tasks into modules, assigns each module
// an exclusive processor set, and optionally replicates modules across
// alternate data sets. pipemap finds the mapping that maximizes
// throughput:
//
//	chain := &pipemap.Chain{ ... }
//	res, err := pipemap.Map(pipemap.Request{
//	    Chain:    chain,
//	    Platform: pipemap.Platform{Procs: 64, MemPerProc: 0.5},
//	})
//	fmt.Println(res.Mapping.String(), res.Throughput)
//
// Two algorithms are provided: a provably optimal dynamic program
// (O(P^4 k^2), section 3 of the paper) and a fast greedy heuristic
// (O(P k), section 4) that is optimal in practice; Map picks automatically
// unless told otherwise. Cost models can be fitted from profiled runs
// (EstimateChain, section 5), mappings can be validated against machine
// geometry (rectangular subarrays and systolic pathways, section 6.1),
// and the Simulate function "runs" a mapping under the paper's execution
// model to measure its throughput.
package pipemap

import (
	"io"
	"net/http"

	"pipemap/internal/adapt"
	"pipemap/internal/core"
	"pipemap/internal/estimate"
	"pipemap/internal/fleet"
	"pipemap/internal/fxrt"
	"pipemap/internal/greedy"
	"pipemap/internal/ingest"
	"pipemap/internal/machine"
	"pipemap/internal/model"
	"pipemap/internal/obs"
	"pipemap/internal/obs/live"
	"pipemap/internal/obs/slo"
	"pipemap/internal/sim"
	"pipemap/internal/tradeoff"
)

// Core model types.
type (
	// Chain is a linear sequence of data parallel tasks with edge costs.
	Chain = model.Chain
	// Task is one data parallel task.
	Task = model.Task
	// Memory is a task's memory requirement (fixed, data, buffers).
	Memory = model.Memory
	// Platform is the processor budget and per-processor memory capacity.
	Platform = model.Platform
	// Module is a mapped cluster of tasks with processors and replicas.
	Module = model.Module
	// Mapping assigns a chain to processors.
	Mapping = model.Mapping
	// Span is a [Lo, Hi) range of task indices.
	Span = model.Span
	// CostFunc is a time as a function of one processor count.
	CostFunc = model.CostFunc
	// CommFunc is a transfer time as a function of sender and receiver
	// processor counts.
	CommFunc = model.CommFunc
	// PolyExec is the paper's polynomial execution model C1 + C2/p + C3*p.
	PolyExec = model.PolyExec
	// PolyComm is the paper's polynomial transfer model
	// C1 + C2/ps + C3/pr + C4*ps + C5*pr.
	PolyComm = model.PolyComm
	// TableCost is a tabulated, interpolated cost function.
	TableCost = model.TableCost
)

// Mapping tool types.
type (
	// Request describes a mapping problem for Map.
	Request = core.Request
	// Result is a mapping solution.
	Result = core.Result
	// Algorithm selects DP, Greedy, or Auto.
	Algorithm = core.Algorithm
)

// Algorithm values.
const (
	// Auto picks DP for small instances, Greedy otherwise.
	Auto = core.Auto
	// DP is the optimal dynamic programming algorithm.
	DP = core.DP
	// Greedy is the fast heuristic.
	Greedy = core.Greedy
)

// Machine geometry types.
type (
	// Grid is a rectangular processor array.
	Grid = machine.Grid
	// Constraints are machine feasibility rules (rectangles, pathways).
	Constraints = machine.Constraints
	// Layout places module instances on a grid.
	Layout = machine.Layout
)

// Estimation types.
type (
	// Profiler measures a chain under a mapping.
	Profiler = estimate.Profiler
	// Measurement is one profiled execution.
	Measurement = estimate.Measurement
	// ExecSample is a (processors, time) observation.
	ExecSample = estimate.ExecSample
	// CommSample is a (sender, receiver, time) observation.
	CommSample = estimate.CommSample
)

// Simulation types.
type (
	// SimOptions configures the execution-model simulator.
	SimOptions = sim.Options
	// SimResult is a simulated run's statistics.
	SimResult = sim.Result
	// SimFailure schedules a fail-stop processor failure on the simulated
	// timeline (see SimOptions.Failures).
	SimFailure = sim.FailureEvent
)

// Map computes the throughput-optimal mapping for a request, optionally
// subject to machine constraints.
func Map(req Request) (Result, error) { return core.Map(req) }

// Remap recomputes the optimal mapping after lostProcs processors have
// failed, the degraded-mode workflow: when the runtime declares instances
// dead, remap onto the surviving processor count and rebuild the pipeline
// from the returned mapping.
func Remap(req Request, lostProcs int) (Result, error) { return core.Remap(req, lostProcs) }

// DataParallel returns the pure data parallel mapping (all tasks on all
// processors), the baseline of the paper's Table 2.
func DataParallel(c *Chain, pl Platform) Mapping { return model.DataParallel(c, pl) }

// Simulate runs a mapping on the discrete-event execution-model simulator
// and returns measured statistics.
func Simulate(m Mapping, opt SimOptions) (SimResult, error) { return sim.New(opt).Run(m) }

// NewTableCost builds a tabulated cost function from (processors, time)
// points with linear interpolation.
func NewTableCost(points map[int]float64) (*TableCost, error) { return model.NewTableCost(points) }

// ZeroExec returns an identically zero cost function (e.g. for free
// internal redistributions between tasks sharing a distribution).
func ZeroExec() CostFunc { return model.ZeroExec() }

// ZeroComm returns an identically zero transfer function.
func ZeroComm() CommFunc { return model.ZeroComm() }

// EstimateChain profiles an application through the paper's eight training
// runs and returns a chain with fitted polynomial cost models. structure
// provides task names, memory and replicability.
func EstimateChain(structure *Chain, prof Profiler, pl Platform) (*Chain, error) {
	return estimate.EstimateChain(structure, prof, pl)
}

// TrainingPlan returns the paper's eight training mappings for a chain.
func TrainingPlan(c *Chain, pl Platform) ([]Mapping, error) {
	return estimate.TrainingPlan(c, pl)
}

// FitExec fits the execution model C1 + C2/p + C3*p to samples.
func FitExec(samples []ExecSample) (PolyExec, error) { return estimate.FitExec(samples) }

// FitComm fits the transfer model C1 + C2/ps + C3/pr + C4*ps + C5*pr.
func FitComm(samples []CommSample) (PolyComm, error) { return estimate.FitComm(samples) }

// Feasible reports whether a mapping satisfies machine constraints,
// returning its grid layout when it does.
func Feasible(m Mapping, cons Constraints) (Layout, bool) { return machine.Feasible(m, cons) }

// Singletons returns the clustering with every task in its own module.
func Singletons(k int) []Span { return model.Singletons(k) }

// AllClusterings enumerates the 2^(k-1) contiguous clusterings of k tasks.
func AllClusterings(k int) [][]Span { return model.AllClusterings(k) }

// Latency-throughput trade-off (extension beyond the paper; latency is
// deferred to Vondran's thesis there).
type (
	// TradeoffPoint is one Pareto-optimal mapping.
	TradeoffPoint = tradeoff.Point
	// TradeoffOptions configures the frontier exploration.
	TradeoffOptions = tradeoff.Options
)

// Frontier returns the Pareto frontier of (throughput, latency) mappings.
func Frontier(c *Chain, pl Platform, opt TradeoffOptions) ([]TradeoffPoint, error) {
	return tradeoff.Frontier(c, pl, opt)
}

// MinLatency returns the mapping minimizing one data set's traversal time.
func MinLatency(c *Chain, pl Platform, opt TradeoffOptions) (Mapping, error) {
	return tradeoff.MinLatency(c, pl, opt)
}

// BestThroughputUnderLatency returns the fastest mapping whose latency
// stays within the bound.
func BestThroughputUnderLatency(c *Chain, pl Platform, bound float64, opt TradeoffOptions) (Mapping, error) {
	return tradeoff.BestThroughputUnderLatency(c, pl, bound, opt)
}

// Certificate reports whether the greedy heuristic is provably optimal
// for a chain, per the paper's Theorems 1 and 2.
type Certificate = greedy.Certificate

// Certify analyzes a chain's cost functions and reports which greedy
// configuration, if any, is provably optimal for it.
func Certify(c *Chain, pl Platform) Certificate { return greedy.Certify(c, pl) }

// Observability types (extension; see DESIGN.md §8). Attach a Tracer
// and/or MetricsRegistry to Request.Trace / Request.Metrics to collect
// solver spans and counters; nil instruments are disabled and free.
type (
	// Tracer collects spans and writes Chrome trace_event JSON for
	// chrome://tracing or ui.perfetto.dev.
	Tracer = obs.Tracer
	// MetricsRegistry is the one metrics registry: the solvers, the
	// adaptive controller, the ingest plane and the SLO engine record into
	// it, and a LiveServer given it as LiveServerOptions.Registry serves it
	// on /metrics. Snapshot copies it.
	MetricsRegistry = live.Registry
	// MetricsSnapshot is a point-in-time copy of a registry: cumulative
	// counter totals, gauges, and histogram summaries over the rolling
	// window.
	MetricsSnapshot = live.Snapshot
)

// NewTracer returns an enabled trace collector.
func NewTracer() *Tracer { return obs.NewTracer() }

// NewMetricsRegistry returns an enabled metrics registry on the wall clock
// with the default 30 s window.
func NewMetricsRegistry() *MetricsRegistry { return live.NewRegistry(live.Options{}) }

// Live observability types (extension; see DESIGN.md §9). A LiveMonitor
// ingests per-attempt runtime observations (stage completions with
// latency, retries, timeouts, drops, instance deaths) and computes a
// pipeline health model against the mapping's predictions: per-stage
// observed period vs f_i/r_i, current bottleneck stage, replica liveness,
// degraded-vs-nominal status. LiveServer exposes it over embeddable HTTP:
// /metrics (Prometheus text 0.0.4), /healthz, /readyz, /pipeline JSON,
// /events NDJSON, /debug/pprof. A nil *LiveMonitor is the disabled
// instrument: every method is a no-op and allocation-free.
type (
	// LiveMonitor is the ingestion point and health-model evaluator.
	LiveMonitor = live.Monitor
	// LiveConfig declares the monitored stages and window/clock options.
	LiveConfig = live.Config
	// LiveStageInfo describes one monitored stage (name, replicas,
	// predicted per-data-set period).
	LiveStageInfo = live.StageInfo
	// LiveHealth is the computed health model, JSON-serializable (the
	// /pipeline payload).
	LiveHealth = live.Health
	// LiveServer is the embeddable HTTP server over a monitor.
	LiveServer = live.Server
	// LiveServerOptions configures the server (monitor, metrics registry,
	// pprof toggle).
	LiveServerOptions = live.ServerOptions
	// LiveEvent is one streamed pipeline event (/events NDJSON records).
	LiveEvent = live.Event
)

// NewLiveMonitor returns an enabled monitor for the configured stages.
func NewLiveMonitor(cfg LiveConfig) *LiveMonitor { return live.NewMonitor(cfg) }

// LiveConfigFromMapping derives monitor configuration from a solved
// mapping: one stage per module with the model-predicted period
// f_i/r_i as the health baseline.
func LiveConfigFromMapping(m Mapping) LiveConfig { return live.ConfigFromMapping(m) }

// NewLiveServer returns an unstarted server; call Start(addr) to listen
// or mount Handler() into an existing mux.
func NewLiveServer(opt LiveServerOptions) *LiveServer { return live.NewServer(opt) }

// Adaptive remapping types (extension; see DESIGN.md §10). An
// AdaptController closes the loop over a served pipeline: it ingests
// per-stage observed service times and replica liveness from a
// LiveMonitor's health model, incrementally refits the cost models online,
// periodically re-solves the mapping against the refitted models and the
// surviving processor count, and decides hold / migrate / rollback under a
// hysteresis threshold. The caller executes each migrate or rollback,
// typically by building the new mapping's pipeline and handing it to an
// IngestPlane's Swap, which migrates live without dropping a request.
type (
	// AdaptConfig configures the controller (chain, platform, initial
	// mapping, migration threshold, fit window, time scale).
	AdaptConfig = adapt.Config
	// AdaptController is the closed-loop decision engine.
	AdaptController = adapt.Controller
	// AdaptDecision is one controller cycle's outcome.
	AdaptDecision = adapt.Decision
	// AdaptStatus is the controller state served on /pipeline.
	AdaptStatus = adapt.Status
	// AdaptObservation is one decision's runtime evidence for Step.
	AdaptObservation = adapt.Observation
)

// NewAdaptController validates the configuration and returns a controller
// at generation 0 on the initial mapping.
func NewAdaptController(cfg AdaptConfig) (*AdaptController, error) { return adapt.NewController(cfg) }

// Ingestion data plane types (extension; see DESIGN.md §11). An
// IngestPlane fronts a running pipeline stream with a bounded multi-tenant
// admission queue: weighted fair dequeue, per-tenant rate limits,
// deadline-based load shedding (predictive at admission, CoDel-style head
// drop at dispatch), a replica-liveness circuit breaker, live migration
// via Swap, and zero-loss graceful drain. Rejections are structured
// IngestShedError values that map onto HTTP 429/503.
type (
	// IngestConfig configures the plane (queue bounds, dispatchers,
	// deadline budget, breaker floor, metrics registry).
	IngestConfig = ingest.Config
	// IngestQueueConfig bounds the admission queue (depth, per-tenant
	// rate/burst, weights, tenant cap).
	IngestQueueConfig = ingest.QueueConfig
	// IngestPlane is the data plane; Submit blocks for an outcome.
	IngestPlane = ingest.Plane
	// IngestOutcome is one request's result (output, error, sojourn,
	// service time).
	IngestOutcome = ingest.Outcome
	// IngestShedError is a structured overload rejection with a reason
	// and optional retry-after hint.
	IngestShedError = ingest.ShedError
	// IngestCodec translates HTTP JSON payloads to pipeline data sets.
	IngestCodec = ingest.Codec
	// IngestStats is the plane's observable state (served on /v1/ingest
	// and under /pipeline's "ingest" key).
	IngestStats = ingest.Stats
)

// NewIngestPlane starts a stream of pl and builds the admission plane
// around it.
func NewIngestPlane(cfg IngestConfig, pl *fxrt.Pipeline, opts fxrt.StreamOptions) (*IngestPlane, error) {
	return ingest.New(cfg, pl, opts)
}

// Request-scoped tracing and SLO types (extension; see DESIGN.md §13). A
// ReqTracer makes head-based sampling decisions at the ingest door
// (honoring W3C traceparent), collects per-request spans across admission,
// queue wait, every pipeline stage attempt, and the response, and fans
// finished traces out to a bounded NDJSON SpanExporter and an in-memory
// FlightRecorder ring served on /debug/flightrecorder. An SLOEngine
// ingests request outcomes and evaluates availability and latency
// objectives with multi-window burn-rate alerting (/slo). All of it
// follows the house nil-is-disabled, zero-alloc-when-off contract.
type (
	// ReqTracer is the sampling and fan-out hub; set it on IngestConfig.
	ReqTracer = obs.ReqTracer
	// ReqTracerConfig configures sampling rate, exporter and recorder.
	ReqTracerConfig = obs.ReqTracerConfig
	// ReqTrace accumulates one sampled request's spans.
	ReqTrace = obs.ReqTrace
	// TraceID is a W3C trace-context ID (16 bytes, lowercase hex wire
	// form).
	TraceID = obs.TraceID
	// FlightRecorder is the lock-free ring of recent request traces and
	// shed/adapt decisions.
	FlightRecorder = obs.FlightRecorder
	// FlightEntry is one recorded flight-recorder event.
	FlightEntry = obs.FlightEntry
	// SpanExporter writes finished traces as NDJSON without ever
	// blocking the data plane.
	SpanExporter = obs.SpanExporter
	// SLOEngine evaluates service-level objectives over request
	// outcomes.
	SLOEngine = slo.Engine
	// SLOConfig declares the objectives, alert windows and tenant
	// scoping.
	SLOConfig = slo.Config
	// SLOObjective is one availability or latency objective.
	SLOObjective = slo.Objective
	// SLOReport is the /slo payload.
	SLOReport = slo.Report
)

// NewReqTracer builds the request-tracing hub.
func NewReqTracer(cfg ReqTracerConfig) *ReqTracer { return obs.NewReqTracer(cfg) }

// NewFlightRecorder builds a ring keeping the last size entries.
func NewFlightRecorder(size int) *FlightRecorder { return obs.NewFlightRecorder(size) }

// NewSpanExporter starts an NDJSON span exporter writing to w with the
// given buffer depth (0 = default).
func NewSpanExporter(w io.Writer, buf int) *SpanExporter { return obs.NewSpanExporter(w, buf) }

// NewSLOEngine builds an SLO engine.
func NewSLOEngine(cfg SLOConfig) *SLOEngine { return slo.New(cfg) }

// Fleet scheduler types (extension; see DESIGN.md §14). A Fleet admits
// many tenant chain specs against one shared processor pool, partitions
// the pool by a weighted-priority policy, and maps every pipeline through
// a solve-once-place-many cache: identical specs (by the canonical spec
// hash at their allocation cap) solve exactly once no matter how many
// tenants submit them. Tenant departure, processor failure, and
// preemptive eviction rebalance the pool and re-place only the pipelines
// whose allocation changed, reading each new mapping from the per-budget
// frontier of the spec's solve at its cap rather than solving again.
type (
	// Fleet is the multi-pipeline scheduler over one shared pool.
	Fleet = fleet.Fleet
	// FleetConfig configures the pool, optional grid, admission bound,
	// and metrics registry; core.AutoAlgorithm picks each solver, as
	// Map's Auto does.
	FleetConfig = fleet.Config
	// FleetSpec is one tenant's admission request (chain plus priority
	// and allocation-cap hints).
	FleetSpec = fleet.Spec
	// FleetPlacement is the externally visible state of one admitted
	// pipeline (allocation, region, mapping, placement generation).
	FleetPlacement = fleet.Placement
	// FleetStats is the counter snapshot; at quiesce Admitted ==
	// Placed + Departed + Evicted.
	FleetStats = fleet.Stats
	// FleetState is the /fleet JSON payload (stats plus placements).
	FleetState = fleet.State
	// FleetCache is the fleet-level solve cache grouping specs into
	// structural families keyed at each spec's allocation cap. Its one
	// Solve serves every allocation up to the cap: from the per-budget
	// frontier of one DP solve at the cap, or, for a cap routed to
	// greedy, from one memoized solve per allocation.
	FleetCache = fleet.Cache
	// FleetCacheStats aggregates hit/miss/solve counters across the
	// cache's families.
	FleetCacheStats = fleet.CacheStats
)

// NewFleet builds an empty fleet scheduler over the configured pool.
func NewFleet(cfg FleetConfig) (*Fleet, error) { return fleet.New(cfg) }

// NewFleetCache builds a standalone fleet solve cache.
func NewFleetCache() *FleetCache { return fleet.NewCache() }

// FleetStateHandler serves a fleet's state as JSON on GET (mount at
// /fleet); FleetFailHandler injects processor failures on POST and runs
// onRebalance after the fleet has re-placed the survivors.
func FleetStateHandler(f *Fleet) http.Handler { return fleet.StateHandler(f) }

// FleetFailHandler is the POST /fleet/fail handler.
func FleetFailHandler(f *Fleet, onRebalance func()) http.Handler {
	return fleet.FailHandler(f, onRebalance)
}

// Objective selects what Map optimizes.
type Objective = core.Objective

// Objective values for Request.Objective.
const (
	// ObjectiveMaxThroughput maximizes data sets per second (default, the
	// paper's objective).
	ObjectiveMaxThroughput = core.MaxThroughput
	// ObjectiveMinLatency minimizes one data set's traversal time.
	ObjectiveMinLatency = core.MinLatency
	// ObjectiveThroughputUnderLatency maximizes throughput subject to
	// Request.LatencyBound.
	ObjectiveThroughputUnderLatency = core.ThroughputUnderLatency
)

// Command pipemap is the automatic mapping tool: it reads a JSON chain
// spec (tasks with polynomial cost models, edges, platform) and prints the
// throughput-optimal mapping.
//
// Usage:
//
//	pipemap [-algo auto|dp|greedy] [-grid RxC] [-systolic] [-json]
//	        [-fail-procs N] [-trace out.json] [-metrics]
//	        [-serve addr] [-serve-n N] [-serve-speedup X]
//	        [-serve-for dur] [-serve-kill auto|stage:instance]
//	        [-adapt] [-adapt-interval dur] [-adapt-threshold G]
//	        [-cpuprofile cpu.pb] [-memprofile mem.pb] [spec.json]
//
// With no file argument the spec is read from standard input. -grid adds
// the rectangular-subarray feasibility constraint (e.g. -grid 8x8);
// -systolic additionally enforces pathway limits. -json emits the mapping
// as JSON (consumable by fxsim) instead of a human-readable report.
// -fail-procs N appends a degraded-mode report: the optimal remapping and
// predicted throughput after N processors are lost (not combinable with
// -json, whose output schema stays a single mapping).
//
// Observability: -trace writes the solver's span trace (per-DP-layer
// timing, states evaluated, prune counts) as Chrome trace_event JSON,
// viewable in chrome://tracing or https://ui.perfetto.dev; -metrics
// appends the run's metrics registry to the report in the Prometheus text
// format that /metrics serves (one registry per run: under -serve the
// solver, the plane, the SLO engine and the controller all record into
// it); -cpuprofile and -memprofile write standard pprof profiles.
//
// Live observability: -serve addr runs the solved mapping on the
// fault-tolerant runtime behind the ingestion data plane and serves
// /metrics (Prometheus text 0.0.4), /healthz, /readyz, /pipeline
// (health-model JSON: per-stage observed period vs predicted f_i/r_i,
// bottleneck, replica liveness), /events (NDJSON), /debug/pprof and
// POST /v1/submit. Without -ingest the pipeline is the model app: each
// stage sleeps its module's response time on the spec, compressed by
// -serve-speedup, and an in-process source submits -serve-n data sets
// through the plane before the serving window starts. -serve-kill
// injects a permanent instance death ("auto" picks the first replicated
// stage) to demonstrate the degraded path, and -serve-for bounds how long
// the server stays up after the run (default: until killed). Not
// combinable with -json. See DESIGN.md §9 and §11.
//
// Adaptive remapping: -adapt closes the loop — every -adapt-interval of
// wall time a controller refits the cost models from observed stage
// latencies, re-solves the mapping for throughput against the surviving
// processors (DP or greedy as -algo auto picks; -algo sets only the
// initial mapping, and -objective latency, -latency-bound and -grid are
// refused), and live-migrates the plane onto a new pipeline (Plane.Swap,
// which drains the old one without dropping a request) when the
// predicted gain clears -adapt-threshold. A migrated mapping that measures more than 20% below
// the pre-migration capacity is rolled back. Controller state
// (generation, last decision, refit residuals) is served under the
// "controller" key of /pipeline and as adapt_* series on /metrics;
// /readyz reports 503 during a migration drain. Combine with -serve-kill
// to watch a death trigger a remap: the injected fault applies to
// generation 0 only, so the migrated pipeline returns to nominal. See
// DESIGN.md §10.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"pipemap/internal/core"
	"pipemap/internal/greedy"
	"pipemap/internal/machine"
	"pipemap/internal/obs"
	"pipemap/internal/obs/live"
	"pipemap/internal/tradeoff"
)

func main() {
	// One context governs every serving mode: SIGINT/SIGTERM cancel it, and
	// the serve loops drain and return instead of dying mid-flight.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pipemap:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("pipemap", flag.ContinueOnError)
	algo := fs.String("algo", "auto", "mapping algorithm: auto, dp, or greedy")
	grid := fs.String("grid", "", "grid dimensions RxC for rectangular feasibility (e.g. 8x8)")
	systolic := fs.Bool("systolic", false, "enforce systolic pathway limits (requires -grid)")
	asJSON := fs.Bool("json", false, "emit the mapping as JSON")
	objective := fs.String("objective", "throughput", "optimization objective: throughput or latency")
	latencyBound := fs.Float64("latency-bound", 0, "maximize throughput subject to this latency budget (seconds)")
	certify := fs.Bool("certify", false, "report whether the greedy heuristic is provably optimal for this chain")
	frontier := fs.Bool("frontier", false, "print the latency-throughput Pareto frontier")
	failProcs := fs.Int("fail-procs", 0, "also report the degraded remapping after losing N processors")
	tracePath := fs.String("trace", "", "write the solver trace as Chrome trace_event JSON to this file")
	metrics := fs.Bool("metrics", false, "print the run's metrics (solver counters and timings) after the report, in the Prometheus text format /metrics serves")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile to this file")
	serveAddr := fs.String("serve", "", "after solving, run the mapping on the fault-tolerant runtime behind the ingestion data plane and serve live observability on this address (e.g. :9090 or 127.0.0.1:0)")
	serveN := fs.Int("serve-n", 200, "with -serve: number of data sets the model app feeds through the plane")
	serveSpeedup := fs.Float64("serve-speedup", 20, "with -serve: compress emulated stage times by this factor")
	serveFor := fs.Duration("serve-for", 0, "with -serve: keep serving this long after the model app's run (or after startup with -ingest), then exit (0 = serve until killed)")
	serveKill := fs.String("serve-kill", "", "with -serve: permanently fail one stage instance (\"stage:instance\" or \"auto\")")
	adapt := fs.Bool("adapt", false, "with -serve: run the adaptive remapping controller (refit cost models online, re-solve, migrate)")
	adaptInterval := fs.Duration("adapt-interval", 2*time.Second, "with -serve -adapt: wall-clock period between controller decisions")
	adaptThreshold := fs.Float64("adapt-threshold", 0.1, "with -serve -adapt: minimum predicted relative throughput gain before migrating")
	ingestApp := fs.String("ingest", "", "with -serve: run the real application kernels (ffthist, radar, or stereo) behind an ingestion data plane with POST /v1/submit on the live server")
	queueDepth := fs.Int("queue-depth", 64, "with -serve: bounded admission queue depth (queue_full sheds beyond it)")
	shedDeadline := fs.Duration("shed-deadline", 2*time.Second, "with -serve: default per-request deadline budget; requests whose queue wait exceeds it are shed")
	tenantRate := fs.Float64("tenant-rate", 0, "with -serve: per-tenant admission rate limit in requests/s (0 = unlimited)")
	ingestSize := fs.Int("ingest-size", 0, "with -ingest: problem size (ffthist matrix N, radar range gates, stereo image width; 0 = a serving default)")
	ingestDispatchers := fs.Int("ingest-dispatchers", 4, "with -ingest: concurrent pipeline dispatchers (the model app runs one per platform processor)")
	traceSample := fs.Float64("trace-sample", 0, "with -serve: head-sampling rate for request traces in [0,1] (0 = tracing off; client traceparent sampled flags always force)")
	traceSpans := fs.String("trace-spans", "", "with -serve: export finished sampled traces as NDJSON to this file")
	flightSize := fs.Int("flight", 256, "with -serve: flight recorder ring size (last N traces/sheds/adapt decisions at /debug/flightrecorder)")
	sloP99 := fs.Duration("slo-p99", 0, "with -serve: p99 end-to-end latency objective (0 = the -shed-deadline budget)")
	sloAvailability := fs.Float64("slo-availability", 0.999, "with -serve: availability objective target in (0,1]")
	fleetMode := fs.Bool("fleet", false, "with -serve: run every spec file argument as a tenant pipeline sharing one processor pool (fleet scheduler; POST /v1/<tenant>/submit, /fleet, POST /fleet/fail)")
	fleetProcs := fs.Int("fleet-procs", 0, "with -fleet: shared pool size in processors (0 = the largest spec's processor count)")
	fleetGrid := fs.String("fleet-grid", "", "with -fleet: pack pipeline allocations as disjoint rectangles on an RxC processor grid (e.g. 8x8)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traceSample < 0 || *traceSample > 1 {
		return fmt.Errorf("-trace-sample must be in [0,1], got %g", *traceSample)
	}
	if *sloAvailability <= 0 || *sloAvailability > 1 {
		return fmt.Errorf("-slo-availability must be in (0,1], got %g", *sloAvailability)
	}
	if *serveAddr != "" && *asJSON {
		return fmt.Errorf("-serve is not combinable with -json")
	}
	if *adapt {
		// The controller re-solves for throughput on the abstract
		// platform; refuse what it would silently drop.
		switch {
		case *serveAddr == "":
			return fmt.Errorf("-adapt requires -serve")
		case *objective != "throughput":
			return fmt.Errorf("-adapt does not support -objective %s (the controller re-solves for throughput)", *objective)
		case *latencyBound > 0:
			return fmt.Errorf("-adapt does not support -latency-bound (the controller re-solves for throughput)")
		case *grid != "":
			return fmt.Errorf("-adapt does not support -grid machine constraints")
		}
	}
	if *ingestApp != "" && *serveAddr == "" {
		return fmt.Errorf("-ingest requires -serve")
	}
	if *queueDepth < 1 {
		return fmt.Errorf("-queue-depth must be >= 1, got %d", *queueDepth)
	}
	if *fleetMode {
		if *serveAddr == "" {
			return fmt.Errorf("-fleet requires -serve")
		}
		if *ingestApp != "" || *adapt {
			return fmt.Errorf("-fleet is not combinable with -ingest or -adapt (the fleet manages its own planes)")
		}
		if *fleetProcs < 0 {
			return fmt.Errorf("-fleet-procs must be >= 0, got %d", *fleetProcs)
		}
		fc := fleetConfig{
			addr: *serveAddr, procs: *fleetProcs, serveFor: *serveFor,
			queueDepth: *queueDepth, shedDeadline: *shedDeadline,
			dispatchers: *ingestDispatchers, ingestSize: *ingestSize,
		}
		if *fleetGrid != "" {
			g, err := parseGrid(*fleetGrid)
			if err != nil {
				return err
			}
			fc.grid = g
		}
		return fleetRun(ctx, stdout, fc, fs.Args())
	}
	if *fleetProcs != 0 || *fleetGrid != "" {
		return fmt.Errorf("-fleet-procs and -fleet-grid require -fleet")
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() { writeHeapProfile(*memprofile) }()
	}
	if *failProcs < 0 {
		return fmt.Errorf("-fail-procs must be >= 0, got %d", *failProcs)
	}
	if *failProcs > 0 && *asJSON {
		return fmt.Errorf("-fail-procs is not combinable with -json")
	}

	in := stdin
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	chain, pl, err := core.ParseChainSpec(in)
	if err != nil {
		return err
	}

	req := core.Request{Chain: chain, Platform: pl}
	if *tracePath != "" {
		req.Trace = obs.NewTracer()
	}
	if *metrics || *serveAddr != "" {
		// One registry per run: the solver records into it, and under -serve
		// the plane, the SLO engine and the controller share it, so -metrics
		// and /metrics print the same instruments.
		req.Metrics = live.NewRegistry(live.Options{})
	}
	switch *objective {
	case "throughput":
	case "latency":
		req.Objective = core.MinLatency
	default:
		return fmt.Errorf("unknown objective %q", *objective)
	}
	if *latencyBound > 0 {
		req.Objective = core.ThroughputUnderLatency
		req.LatencyBound = *latencyBound
	}
	switch *algo {
	case "auto":
	case "dp":
		req.Algorithm = core.DP
	case "greedy":
		req.Algorithm = core.Greedy
	default:
		return fmt.Errorf("unknown algorithm %q", *algo)
	}
	if *grid != "" {
		if *frontier {
			// The frontier spans the abstract platform; refuse what it
			// would silently drop.
			return fmt.Errorf("-frontier does not support -grid machine constraints")
		}
		g, err := parseGrid(*grid)
		if err != nil {
			return err
		}
		req.Machine = &machine.Constraints{Grid: g, Systolic: *systolic}
	} else if *systolic {
		return fmt.Errorf("-systolic requires -grid")
	}

	res, err := core.Map(req)
	if err != nil {
		return err
	}
	if *certify {
		cert := greedy.Certify(chain, pl)
		fmt.Fprintf(stdout, "certificate: optimal=%v\n  %s\n\n", cert.Optimal, cert.Reason)
	}
	if *frontier {
		front, err := tradeoff.Frontier(chain, pl, tradeoff.Options{MinThroughputGain: 0.02})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "latency-throughput Pareto frontier:\n")
		for _, pt := range front {
			fmt.Fprintf(stdout, "  %8.3f/s  %8.4fs  %v\n", pt.Throughput, pt.Latency, &pt.Mapping)
		}
		fmt.Fprintln(stdout)
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(core.EncodeMapping(res.Mapping)); err != nil {
			return err
		}
		return writeTrace(*tracePath, req.Trace)
	}
	fmt.Fprintf(stdout, "algorithm:  %v\n", res.Algorithm)
	fmt.Fprintf(stdout, "mapping:    %v\n", &res.Mapping)
	fmt.Fprintf(stdout, "throughput: %.4f data sets/s\n", res.Throughput)
	fmt.Fprintf(stdout, "latency:    %.4f s\n", res.Latency)
	fmt.Fprintf(stdout, "processors: %d of %d used\n", res.Mapping.TotalProcs(), pl.Procs)
	if res.Layout != nil {
		fmt.Fprintf(stdout, "\nlayout on %dx%d grid:\n%s",
			res.Layout.Grid.Rows, res.Layout.Grid.Cols, res.Layout.String())
		if res.Unconstrained.Throughput() > res.Throughput*1.0001 {
			fmt.Fprintf(stdout, "\nnote: unconstrained optimum %v (%.4f/s) was infeasible on the grid\n",
				&res.Unconstrained, res.Unconstrained.Throughput())
		}
	}
	if *failProcs > 0 {
		deg, err := core.Remap(req, *failProcs)
		if err != nil {
			return fmt.Errorf("degraded remapping after losing %d processors: %w", *failProcs, err)
		}
		fmt.Fprintf(stdout, "\ndegraded after losing %d processors (%d survive):\n",
			*failProcs, pl.Procs-*failProcs)
		fmt.Fprintf(stdout, "  mapping:    %v\n", &deg.Mapping)
		fmt.Fprintf(stdout, "  throughput: %.4f data sets/s (%.1f%% of nominal)\n",
			deg.Throughput, 100*deg.Throughput/res.Throughput)
		fmt.Fprintf(stdout, "  latency:    %.4f s\n", deg.Latency)
	}
	if *metrics {
		fmt.Fprintf(stdout, "\nmetrics:\n")
		if err := live.WriteProm(stdout, nil, req.Metrics); err != nil {
			return err
		}
	}
	if *tracePath != "" {
		if err := writeTrace(*tracePath, req.Trace); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\ntrace written to %s (%d events) — open in chrome://tracing or ui.perfetto.dev\n",
			*tracePath, req.Trace.Len())
	}
	if *serveAddr != "" {
		fmt.Fprintln(stdout)
		return serveIngest(ctx, stdout, res, req, serveConfig{
			addr: *serveAddr, n: *serveN, speedup: *serveSpeedup,
			serveFor: *serveFor, kill: *serveKill,
			adapt: *adapt, adaptInterval: *adaptInterval, adaptThreshold: *adaptThreshold,
			ingestApp: *ingestApp, queueDepth: *queueDepth, shedDeadline: *shedDeadline,
			tenantRate: *tenantRate, ingestSize: *ingestSize, dispatchers: *ingestDispatchers,
			traceSample: *traceSample, traceSpans: *traceSpans, flightSize: *flightSize,
			sloP99: *sloP99, sloAvailability: *sloAvailability,
		})
	}
	return nil
}

// writeTrace writes the collected solver trace as Chrome trace_event JSON.
func writeTrace(path string, tr *obs.Tracer) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeHeapProfile best-effort writes a heap profile; -memprofile is a
// debugging aid, so failures only warn.
func writeHeapProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipemap: memprofile:", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "pipemap: memprofile:", err)
	}
}

func parseGrid(s string) (machine.Grid, error) {
	parts := strings.SplitN(strings.ToLower(s), "x", 2)
	if len(parts) != 2 {
		return machine.Grid{}, fmt.Errorf("grid %q is not RxC", s)
	}
	var g machine.Grid
	if _, err := fmt.Sscanf(parts[0], "%d", &g.Rows); err != nil {
		return machine.Grid{}, fmt.Errorf("grid rows %q: %w", parts[0], err)
	}
	if _, err := fmt.Sscanf(parts[1], "%d", &g.Cols); err != nil {
		return machine.Grid{}, fmt.Errorf("grid cols %q: %w", parts[1], err)
	}
	if err := g.Validate(); err != nil {
		return machine.Grid{}, err
	}
	return g, nil
}

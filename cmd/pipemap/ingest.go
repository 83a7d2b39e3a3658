package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"pipemap/internal/adapt"
	"pipemap/internal/apps"
	"pipemap/internal/core"
	"pipemap/internal/fxrt"
	"pipemap/internal/ingest"
	"pipemap/internal/model"
	"pipemap/internal/obs"
	"pipemap/internal/obs/live"
	"pipemap/internal/obs/slo"
)

// ingestLivenessFloor opens the admission circuit breaker when any stage
// retains less than half of its replicas: a half-dead stage still serves,
// but admitting a full queue against it would convert queueing into
// deadline sheds, so the breaker rejects at the door instead.
const ingestLivenessFloor = 0.5

// buildIngestApp realizes the solved mapping as a real kernel pipeline for
// the named application, with the fault-tolerance policy the data plane
// expects, and returns the codec translating HTTP payloads to data sets.
func buildIngestApp(sc serveConfig, m model.Mapping) (*fxrt.Pipeline, fxrt.StreamOptions, ingest.Codec, error) {
	var (
		pl    *fxrt.Pipeline
		opts  fxrt.StreamOptions
		codec ingest.Codec
		err   error
	)
	switch sc.ingestApp {
	case "ffthist":
		n := sc.ingestSize
		if n == 0 {
			n = 128
		}
		r := apps.FFTHistRunner{N: n}
		var edges []fxrt.Edge
		pl, edges, err = r.Pipeline(m)
		opts.Edges = edges
		codec = apps.FFTHistCodec{Runner: r}
	case "radar":
		r := apps.RadarRunner{Gates: sc.ingestSize}
		pl, _, err = r.Pipeline(m)
		codec = apps.RadarCodec{Runner: r}
	case "stereo":
		r := apps.StereoRunner{W: sc.ingestSize}
		pl, err = r.Pipeline(m)
		codec = apps.StereoCodec{Runner: r}
	default:
		return nil, opts, nil, fmt.Errorf("-ingest %q: unknown application (want ffthist, radar, or stereo)", sc.ingestApp)
	}
	if err != nil {
		return nil, opts, nil, err
	}
	pl.Retry = fxrt.RetryPolicy{MaxRetries: 2, Backoff: time.Millisecond}
	pl.DeadAfter = 2
	return pl, opts, codec, nil
}

// serveIngest runs the ingestion data plane: the solved mapping realized as
// a real kernel pipeline behind a bounded admission queue, accepting data
// sets as POST /v1/submit on the live observability server and returning
// computed results or structured shed errors. SIGTERM (or -serve-for
// elapsing) stops admission, flushes the backlog and every in-flight
// request, and only then tears the pipeline down — zero accepted requests
// are lost. With -adapt, the remapping controller observes pipeline health
// plus ingest load each interval and live-migrates the plane onto a better
// mapping via Plane.Swap.
func serveIngest(ctx context.Context, stdout io.Writer, res core.Result, req core.Request, sc serveConfig) error {
	m := res.Mapping
	mon := live.NewMonitor(live.ConfigFromMapping(m))
	pl, opts, codec, err := buildIngestApp(sc, m)
	if err != nil {
		return err
	}
	if sc.kill != "" {
		stage, inst, err := resolveKill(sc.kill, m)
		if err != nil {
			return err
		}
		pl.Faults = append(pl.Faults, fxrt.Fault{
			Stage: stage, Instance: inst, DataSet: -1, Kind: fxrt.FaultFail,
		})
		fmt.Fprintf(stdout, "injecting permanent failure: stage %d instance %d\n", stage, inst)
	}
	pl.Monitor = mon
	reg := live.NewRegistry(live.Options{})

	// Observability plumbing: flight recorder (always on — it is one ring
	// of pointers), span exporter (only with -trace-spans), request tracer
	// (only with -trace-sample > 0 or a forcing client header), and the SLO
	// engine evaluating availability and p99 latency.
	flight := obs.NewFlightRecorder(sc.flightSize)
	var exporter *obs.SpanExporter
	if sc.traceSpans != "" {
		f, err := os.Create(sc.traceSpans)
		if err != nil {
			return fmt.Errorf("-trace-spans: %w", err)
		}
		defer f.Close()
		exporter = obs.NewSpanExporter(f, 0)
		defer exporter.Close()
	}
	tracer := obs.NewReqTracer(obs.ReqTracerConfig{
		SampleRate: sc.traceSample,
		Exporter:   exporter,
		Flight:     flight,
	})
	sloP99 := sc.sloP99
	if sloP99 <= 0 {
		sloP99 = sc.shedDeadline
	}
	engine := slo.New(slo.Config{
		Objectives: []slo.Objective{
			{Name: "availability", Target: sc.sloAvailability},
			{Name: "latency_p99", Target: 0.99, LatencyMS: float64(sloP99) / float64(time.Millisecond)},
		},
		PerTenant: true,
		Registry:  reg,
	})

	icfg := ingest.Config{
		Queue:         ingest.QueueConfig{Depth: sc.queueDepth, Rate: sc.tenantRate},
		Dispatchers:   sc.dispatchers,
		DefaultBudget: sc.shedDeadline,
		LivenessFloor: ingestLivenessFloor,
		Registry:      reg,
		Tracer:        tracer,
		SLO:           engine,
	}
	plane, err := ingest.New(icfg, pl, opts)
	if err != nil {
		return err
	}

	// The served monitor follows the current backend across live swaps.
	var curMon atomic.Pointer[live.Monitor]
	curMon.Store(mon)

	srvOpts := live.ServerOptions{
		Source:   func() *live.Monitor { return curMon.Load() },
		Registry: reg,
		Ingest:   func() any { return plane.Stats() },
		SLO:      func() any { return engine.Report() },
		Flight:   flight.Snapshot,
		Extra: map[string]http.Handler{
			"/v1/submit": ingest.SubmitHandler(plane, codec),
			"/v1/ingest": ingest.StatusHandler(plane),
		},
	}
	if req.Metrics != nil {
		srvOpts.Static = req.Metrics.Snapshot
	}
	var ctrl *adapt.Controller
	if sc.adapt {
		ctrl, err = adapt.NewController(adapt.Config{
			Chain:     req.Chain,
			Platform:  req.Platform,
			Initial:   m,
			Threshold: sc.adaptThreshold,
			TimeScale: 1,
			Trace:     req.Trace,
			Metrics:   req.Metrics,
			Flight:    flight,
		})
		if err != nil {
			plane.Drain() // the stream is already running; don't leak it
			return err
		}
		srvOpts.Controller = func() any { return ctrl.Status() }
	}
	srv := live.NewServer(srvOpts)
	if err := srv.Start(sc.addr); err != nil {
		plane.Drain()
		return err
	}
	defer srv.Close()
	rate := "unlimited"
	if sc.tenantRate > 0 {
		rate = fmt.Sprintf("%g req/s per tenant", sc.tenantRate)
	}
	fmt.Fprintf(stdout, "serving %s ingestion on http://%s via the fxrt executor (POST /v1/submit; /v1/ingest /pipeline /metrics /readyz)\n",
		codec.App(), srv.Addr())
	fmt.Fprintf(stdout, "admission: queue depth %d, deadline budget %s, rate %s, %d dispatcher(s)\n",
		sc.queueDepth, sc.shedDeadline, rate, sc.dispatchers)
	spans := "off"
	if sc.traceSpans != "" {
		spans = sc.traceSpans
	}
	fmt.Fprintf(stdout, "tracing: sample %g, span export %s, flight ring %d (/slo /debug/flightrecorder)\n",
		sc.traceSample, spans, flight.Cap())

	adaptDone := make(chan struct{})
	var adaptWg sync.WaitGroup
	if ctrl != nil {
		interval := sc.adaptInterval
		if interval <= 0 {
			interval = 2 * time.Second
		}
		adaptWg.Add(1)
		go func() {
			defer adaptWg.Done()
			ingestAdaptLoop(stdout, sc, plane, ctrl, &curMon, interval, adaptDone)
		}()
	}

	serveWait(ctx, stdout, sc.serveFor)
	close(adaptDone)
	adaptWg.Wait()

	fmt.Fprintln(stdout, "draining: admission stopped, flushing accepted requests")
	ds := plane.Drain()
	st := plane.Stats()
	var shed int64
	for _, n := range st.Shed {
		shed += n
	}
	fmt.Fprintf(stdout, "drain complete: %d request(s) flushed; lifetime admitted %d, completed %d, failed %d, shed %d\n",
		ds.Flushed, st.Admitted, st.Completed, st.Failed, shed)
	return nil
}

// ingestAdaptLoop drives the remapping controller against the live plane:
// each interval it feeds pipeline health and ingest load evidence into
// Step, and on a migrate or rollback decision rebuilds the kernel pipeline
// on the controller's mapping and swaps the plane onto it without dropping
// a request.
func ingestAdaptLoop(stdout io.Writer, sc serveConfig, plane *ingest.Plane, ctrl *adapt.Controller,
	curMon *atomic.Pointer[live.Monitor], interval time.Duration, done <-chan struct{}) {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	var lastAdmit, lastShed int64
	for {
		select {
		case <-done:
			return
		case <-tick.C:
		}
		st := plane.Stats()
		var shed int64
		for _, n := range st.Shed {
			shed += n
		}
		load := adapt.IngestLoad{
			QueueDepth: st.QueueDepth,
			InFlight:   st.Dispatching,
			AdmitRate:  float64(st.Admitted-lastAdmit) / interval.Seconds(),
			ShedRate:   float64(shed-lastShed) / interval.Seconds(),
		}
		lastAdmit, lastShed = st.Admitted, shed
		h := curMon.Load().Health()
		d := ctrl.Step(adapt.Observation{Health: h, Throughput: h.ObservedThroughput, Ingest: &load})
		if d.Action == adapt.ActionHold {
			continue
		}
		nm := ctrl.Mapping()
		npl, nopts, _, err := buildIngestApp(sc, nm)
		if err != nil {
			fmt.Fprintf(stdout, "cycle %d: %s aborted: %v\n", d.Cycle, d.Action, err)
			continue
		}
		nmon := live.NewMonitor(live.ConfigFromMapping(nm))
		npl.Monitor = nmon
		if err := plane.Swap(npl, nopts); err != nil {
			fmt.Fprintf(stdout, "cycle %d: %s aborted: %v\n", d.Cycle, d.Action, err)
			continue
		}
		curMon.Store(nmon)
		fmt.Fprintf(stdout, "cycle %d: %s -> generation %d: %s\n", d.Cycle, d.Action, d.Generation, d.Reason)
	}
}

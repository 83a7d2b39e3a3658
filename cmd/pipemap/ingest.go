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

// buildIngestApp realizes a mapping as the named application's pipeline,
// with the fault-tolerance policy the data plane expects and a live
// monitor attached, and returns the codec translating HTTP payloads to
// data sets. No -ingest application is the model app: the mapping's
// modules emulated on the spec chain (fxrt.ModelPipelineOn), stage times
// compressed by -serve-speedup and the monitor's predictions with them. A
// migrated mapping's chain carries the controller's refitted beliefs, so
// emulating the spec keeps every generation's stage times the same truth.
func buildIngestApp(sc serveConfig, spec *model.Chain, m model.Mapping) (*fxrt.Pipeline, fxrt.StreamOptions, ingest.Codec, error) {
	var (
		pl    *fxrt.Pipeline
		opts  fxrt.StreamOptions
		codec ingest.Codec
		err   error
		scale = 1.0
	)
	switch sc.ingestApp {
	case "":
		pl, err = fxrt.ModelPipelineOn(m, spec, sc.speedup)
		codec = modelCodec{}
		scale = sc.speedup
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
	pl.Monitor = live.NewMonitor(live.ConfigFromMapping(m).Scale(scale))
	return pl, opts, codec, nil
}

// serveIngest runs every -serve mode on the ingestion data plane: the
// solved mapping realized as an app pipeline behind a bounded admission
// queue, accepting data sets as POST /v1/submit on the live observability
// server and returning computed results or structured shed errors. The
// model app (no -ingest) also feeds the plane its -serve-n data sets from
// an in-process source and reports the run before the serving window
// starts. SIGTERM (or -serve-for elapsing) stops admission, flushes the
// backlog and every in-flight request, and only then tears the pipeline
// down — zero accepted requests are lost. With -adapt, the remapping
// controller observes pipeline health plus ingest load each interval and
// live-migrates the plane onto a better mapping via Plane.Swap.
func serveIngest(ctx context.Context, stdout io.Writer, res core.Result, req core.Request, sc serveConfig) error {
	if sc.n < 2 {
		return fmt.Errorf("-serve-n must be >= 2, got %d", sc.n)
	}
	m := res.Mapping
	pl, opts, codec, err := buildIngestApp(sc, req.Chain, m)
	if err != nil {
		return err
	}
	if sc.kill != "" {
		stage, inst, err := resolveKill(sc.kill, m)
		if err != nil {
			return err
		}
		// A permanent failure on one instance of the first generation: it
		// fails every attempt, is declared dead after DeadAfter consecutive
		// failures, and its share of the stream requeues onto the survivors.
		pl.Faults = append(pl.Faults, fxrt.Fault{
			Stage: stage, Instance: inst, DataSet: -1, Kind: fxrt.FaultFail,
		})
		fmt.Fprintf(stdout, "injecting permanent failure: stage %d instance %d\n", stage, inst)
	}
	modelApp := sc.ingestApp == ""
	dispatchers, timeScale := sc.dispatchers, 1.0
	if modelApp {
		// A sleep-emulated stage needs every replica busy, and every mapping
		// has sum(r_i) <= P: P dispatchers keep the emulation at its
		// bottleneck rate.
		dispatchers, timeScale = req.Platform.Procs, sc.speedup
	}
	reg := req.Metrics // the run's one registry, shared with the solver

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
		Dispatchers:   dispatchers,
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
	curMon.Store(pl.Monitor)

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
	var ctrl *adapt.Controller
	if sc.adapt {
		ctrl, err = adapt.NewController(adapt.Config{
			Chain:     req.Chain,
			Platform:  req.Platform,
			Initial:   m,
			Threshold: sc.adaptThreshold,
			TimeScale: timeScale,
			Trace:     req.Trace,
			Metrics:   reg,
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
		sc.queueDepth, sc.shedDeadline, rate, dispatchers)
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
		tick := time.NewTicker(interval)
		defer tick.Stop()
		adaptWg.Add(1)
		go func() {
			defer adaptWg.Done()
			adaptLoop(stdout, sc, req.Chain, plane, ctrl, &curMon, tick.C, adaptDone)
		}()
	}

	if modelApp {
		// No more submissions outstanding than the queue holds: a shallow
		// -queue-depth then slows the run instead of shedding most of it.
		submitters := min(dispatchers, sc.queueDepth)
		fmt.Fprintf(stdout, "feeding %d data sets from %d in-process submitter(s); stage times compressed %gx\n",
			sc.n, submitters, sc.speedup)
		fst := feed(ctx, plane, sc.n, submitters)
		reportRun(stdout, fst, m, sc.speedup, curMon.Load().Health(), ctrl)
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

// adaptLoop drives the remapping controller against the live plane, one
// decision per tick. Each decision observes the serving generation's
// health, its capacity and the plane's load since the last decision; a
// migrate or rollback decision rebuilds the app on the controller's
// mapping and swaps the plane onto it without dropping a request. A tick
// on which a stage of the serving generation has no latency samples in its
// window is skipped: with no measurement, its period is only the
// prediction.
func adaptLoop(stdout io.Writer, sc serveConfig, spec *model.Chain, plane *ingest.Plane, ctrl *adapt.Controller,
	curMon *atomic.Pointer[live.Monitor], ticks <-chan time.Time, done <-chan struct{}) {
	var lastAdmit, lastShed int64
	last := time.Now()
	for {
		var now time.Time
		select {
		case <-done:
			return
		case now = <-ticks:
		}
		h := curMon.Load().Health()
		capacity, ok := servedCapacity(h)
		if !ok {
			continue
		}
		st := plane.Stats()
		var shed int64
		for _, n := range st.Shed {
			shed += n
		}
		secs := now.Sub(last).Seconds()
		load := adapt.IngestLoad{
			QueueDepth: st.QueueDepth,
			InFlight:   st.Dispatching,
			AdmitRate:  float64(st.Admitted-lastAdmit) / secs,
			ShedRate:   float64(shed-lastShed) / secs,
		}
		lastAdmit, lastShed, last = st.Admitted, shed, now
		d := ctrl.Step(adapt.Observation{Health: h, Throughput: capacity, Ingest: &load})
		if d.Action == adapt.ActionHold {
			continue
		}
		npl, nopts, _, err := buildIngestApp(sc, spec, ctrl.Mapping())
		if err == nil {
			err = plane.Swap(npl, nopts)
		}
		if err != nil {
			fmt.Fprintf(stdout, "cycle %d: %s aborted: %v\n", d.Cycle, d.Action, err)
			continue
		}
		curMon.Store(npl.Monitor)
		fmt.Fprintf(stdout, "cycle %d: %s -> generation %d: %s\n", d.Cycle, d.Action, d.Generation, d.Reason)
	}
}

// servedCapacity is the paper's throughput 1/max_i(f_i/r_i) on measured
// periods: each stage's windowed mean attempt latency over its live
// replicas. Unlike the sink rate, it does not fall with the offered load.
// It reports false while a stage has no latency samples in its window.
func servedCapacity(h live.Health) (float64, bool) {
	worst := 0.0
	for _, s := range h.Stages {
		if s.Latency.Count == 0 {
			return 0, false
		}
		worst = max(worst, s.ObservedPeriod)
	}
	if worst <= 0 {
		return 0, false
	}
	return 1 / worst, true
}

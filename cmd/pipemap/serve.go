package main

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"pipemap/internal/adapt"
	"pipemap/internal/core"
	"pipemap/internal/fxrt"
	"pipemap/internal/model"
	"pipemap/internal/obs/live"
)

// serveConfig carries the -serve* and -adapt* flags.
type serveConfig struct {
	addr     string
	n        int
	speedup  float64
	serveFor time.Duration
	kill     string

	adapt          bool
	adaptInterval  time.Duration
	adaptThreshold float64

	ingestApp    string
	queueDepth   int
	shedDeadline time.Duration
	tenantRate   float64
	ingestSize   int
	dispatchers  int

	traceSample     float64
	traceSpans      string
	flightSize      int
	sloP99          time.Duration
	sloAvailability float64
}

// serveWait blocks until the configured serving window elapses or the
// process is signalled, then reports whether a drain is due to a signal.
func serveWait(ctx context.Context, stdout io.Writer, serveFor time.Duration) {
	if serveFor > 0 {
		select {
		case <-time.After(serveFor):
		case <-ctx.Done():
		}
		return
	}
	fmt.Fprintln(stdout, "serving until killed (ctrl-c or SIGTERM to exit)")
	<-ctx.Done()
}

// serveRun executes the solved mapping on the fault-tolerant runtime with a
// live observability server attached: one emulated stage per module,
// replicated per the mapping, with stage times compressed by the speedup
// factor. The health model compares observed per-stage periods against the
// model's f_i/r_i (scaled identically), so /pipeline shows the predicted
// bottleneck reproducing live — and, with -serve-kill, how losing a replica
// moves the pipeline to degraded.
func serveRun(ctx context.Context, stdout io.Writer, res core.Result, req core.Request, sc serveConfig) error {
	if sc.n < 2 {
		return fmt.Errorf("-serve-n must be >= 2, got %d", sc.n)
	}
	if sc.ingestApp != "" {
		return serveIngest(ctx, stdout, res, req, sc)
	}
	if sc.adapt {
		return serveAdaptive(ctx, stdout, res, req, sc)
	}
	m, metrics := res.Mapping, req.Metrics
	pl, err := fxrt.ModelPipeline(m, sc.speedup)
	if err != nil {
		return err
	}
	// Always run fault-tolerant: retries and death detection are what the
	// live health model observes.
	pl.Retry = fxrt.RetryPolicy{MaxRetries: 2, Backoff: time.Millisecond}
	pl.DeadAfter = 2
	if sc.kill != "" {
		stage, inst, err := resolveKill(sc.kill, m)
		if err != nil {
			return err
		}
		// A permanent failure on one instance: it fails every attempt, is
		// declared dead after DeadAfter consecutive failures, and its share
		// of the stream requeues onto the surviving replicas.
		pl.Faults = append(pl.Faults, fxrt.Fault{
			Stage: stage, Instance: inst, DataSet: -1, Kind: fxrt.FaultFail,
		})
		fmt.Fprintf(stdout, "injecting permanent failure: stage %d instance %d\n", stage, inst)
	}
	mon := live.NewMonitor(live.ConfigFromMapping(m).Scale(sc.speedup))
	pl.Monitor = mon

	opts := live.ServerOptions{Monitor: mon}
	if metrics != nil {
		opts.Static = metrics.Snapshot
	}
	srv := live.NewServer(opts)
	if err := srv.Start(sc.addr); err != nil {
		return err
	}
	defer srv.Close()
	fmt.Fprintf(stdout, "serving live observability on http://%s (/metrics /pipeline /healthz /readyz /events)\n", srv.Addr())

	stats, err := pl.Run(func(i int) fxrt.DataSet { return i }, sc.n, 0)
	if err != nil {
		return err
	}
	h := mon.Health()
	fmt.Fprintf(stdout, "run complete: %d data sets, %.4f data sets/s observed (model predicts %.4f at %gx speedup)\n",
		stats.DataSets, stats.Throughput, m.Throughput()*sc.speedup, sc.speedup)
	fmt.Fprintf(stdout, "health: %s", h.Status)
	if h.Reason != "" {
		fmt.Fprintf(stdout, " (%s)", h.Reason)
	}
	fmt.Fprintf(stdout, "; bottleneck stage %d (%s), predicted %d\n",
		h.BottleneckStage, h.Stages[h.BottleneckStage].Name, h.PredictedBottleneck)
	if stats.Retried+stats.Dropped+stats.Dead > 0 {
		fmt.Fprintf(stdout, "faults: %d retried, %d dropped, %d instance death(s)\n",
			stats.Retried, stats.Dropped, stats.Dead)
	}
	serveWait(ctx, stdout, sc.serveFor)
	return nil
}

// serveAdaptive runs the closed loop: the solved mapping executes in
// bounded segments on the fault-tolerant runtime, and between segments the
// adaptive controller refits the cost models from observed stage
// latencies, re-solves on the surviving processors, and live-migrates when
// the predicted gain clears the threshold. The observability server
// follows the current generation's monitor and serves the controller state
// under /pipeline's "controller" key. An injected -serve-kill fault
// applies to generation 0 only, so a death-triggered remap visibly returns
// the pipeline to nominal.
func serveAdaptive(ctx context.Context, stdout io.Writer, res core.Result, req core.Request, sc serveConfig) error {
	m := res.Mapping
	ctrl, err := adapt.NewController(adapt.Config{
		Chain:     req.Chain,
		Platform:  req.Platform,
		Initial:   m,
		Threshold: sc.adaptThreshold,
		TimeScale: sc.speedup,
		Trace:     req.Trace,
		Metrics:   req.Metrics,
	})
	if err != nil {
		return err
	}

	killStage, killInst := -1, -1
	if sc.kill != "" {
		killStage, killInst, err = resolveKill(sc.kill, m)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "injecting permanent failure: stage %d instance %d (generation 0 only)\n",
			killStage, killInst)
	}

	rt := &adapt.Runtime{
		Controller: ctrl,
		Factory: func(gm model.Mapping, gen int) (*fxrt.Pipeline, error) {
			pl, err := fxrt.ModelPipeline(gm, sc.speedup)
			if err != nil {
				return nil, err
			}
			pl.Retry = fxrt.RetryPolicy{MaxRetries: 2, Backoff: time.Millisecond}
			pl.DeadAfter = 2
			if gen == 0 && killStage >= 0 {
				pl.Faults = append(pl.Faults, fxrt.Fault{
					Stage: killStage, Instance: killInst, DataSet: -1, Kind: fxrt.FaultFail,
				})
			}
			return pl, nil
		},
		MonitorConfig: func(gm model.Mapping) live.Config {
			return live.ConfigFromMapping(gm).Scale(sc.speedup)
		},
		SegmentSize: adaptSegmentSize(m, sc),
		OnSegment: func(gen, segment int, stats fxrt.Stats, d adapt.Decision) {
			if d.Action != adapt.ActionHold {
				fmt.Fprintf(stdout, "cycle %d: %s -> generation %d: %s\n",
					d.Cycle, d.Action, d.Generation, d.Reason)
			}
		},
	}

	opts := live.ServerOptions{
		Source:     rt.Monitor,
		Controller: func() any { return ctrl.Status() },
	}
	if req.Metrics != nil {
		opts.Static = req.Metrics.Snapshot
	}
	srv := live.NewServer(opts)
	if err := srv.Start(sc.addr); err != nil {
		return err
	}
	defer srv.Close()
	fmt.Fprintf(stdout, "serving adaptive pipeline on http://%s (segment size %d; /pipeline carries controller state)\n",
		srv.Addr(), rt.SegmentSize)

	stats, err := rt.Run(sc.n)
	if err != nil {
		return err
	}
	st := ctrl.Status()
	fmt.Fprintf(stdout, "run complete: %d data sets across %d generation(s); %d migration(s), %d rollback(s), %d processor(s) lost\n",
		stats.DataSets, len(stats.Generations), stats.Migrations, stats.Rollbacks, st.LostProcs)
	for _, g := range stats.Generations {
		tag := ""
		if g.Rollback {
			tag = " (rollback)"
		}
		fmt.Fprintf(stdout, "  gen %d%s: %d data sets, %.4f data sets/s observed — %s\n",
			g.Generation, tag, g.DataSets, g.Throughput, g.Mapping)
	}
	serveWait(ctx, stdout, sc.serveFor)
	return nil
}

// adaptSegmentSize targets one controller decision per -adapt-interval of
// wall time: the mapping's predicted runtime throughput times the interval,
// clamped to [8, 256] so a drain never strands an unbounded number of
// in-flight data sets and a decision always has a few observations.
func adaptSegmentSize(m model.Mapping, sc serveConfig) int {
	interval := sc.adaptInterval.Seconds()
	if interval <= 0 {
		interval = 2
	}
	n := int(m.Throughput() * sc.speedup * interval)
	if n < 8 {
		n = 8
	}
	if n > 256 {
		n = 256
	}
	return n
}

// resolveKill parses -serve-kill: "auto" picks instance 0 of the first
// replicated stage; otherwise "stage:instance".
func resolveKill(spec string, m model.Mapping) (int, int, error) {
	if spec == "auto" {
		for i, mod := range m.Modules {
			if mod.Replicas > 1 {
				return i, 0, nil
			}
		}
		return 0, 0, fmt.Errorf("-serve-kill auto: no replicated stage to kill (killing the only instance would only drop data sets)")
	}
	parts := strings.SplitN(spec, ":", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("-serve-kill %q is not stage:instance or auto", spec)
	}
	stage, err := strconv.Atoi(parts[0])
	if err != nil {
		return 0, 0, fmt.Errorf("-serve-kill stage %q: %w", parts[0], err)
	}
	inst, err := strconv.Atoi(parts[1])
	if err != nil {
		return 0, 0, fmt.Errorf("-serve-kill instance %q: %w", parts[1], err)
	}
	if stage < 0 || stage >= len(m.Modules) {
		return 0, 0, fmt.Errorf("-serve-kill stage %d outside the %d-module mapping", stage, len(m.Modules))
	}
	if inst < 0 || inst >= m.Modules[stage].Replicas {
		return 0, 0, fmt.Errorf("-serve-kill instance %d outside stage %d's %d replicas",
			inst, stage, m.Modules[stage].Replicas)
	}
	return stage, inst, nil
}

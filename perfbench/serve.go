package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pipemap/internal/apps"
	"pipemap/internal/core"
	"pipemap/internal/fxrt"
	"pipemap/internal/ingest"
	"pipemap/internal/model"
	"pipemap/internal/obs"
	"pipemap/internal/obs/live"
	"pipemap/internal/obs/slo"
)

// committedMappings are the DP mappings of the four specs as committed in
// BENCH_solver.json; a solve that disagrees fails the run.
var committedMappings = map[string]string{
	"radar64":    "[pulsecomp+doppler+cfar p=3 r=3] | [track p=4 r=1]",
	"ffthist256": "[colffts p=3 r=8] | [rowffts+hist p=4 r=10]",
	"stereo128":  "[capture p=16 r=1] | [diff+err p=2 r=4] | [depth p=1 r=1]",
	"threestage": "[read+transform+reduce p=6 r=5]",
}

// serveApp is one HTTP serving workload: a real-kernel application behind
// the ingestion plane, at one fixed open-loop rate.
type serveApp struct {
	workload, spec string
	// rate is the fixed open-loop rate in requests/s: about half the
	// closed-loop peak on the 2-CPU host the workloads were defined on. It
	// is a constant so a faster build is offered the same load.
	rate     float64
	pipeline func(m model.Mapping) (*fxrt.Pipeline, []fxrt.Edge, ingest.Codec, error)
	inputs   func(seed int64) []appInput
}

// Serving defaults of the real applications: the radar runner's 16×256
// cube and FFT-Hist at N=128, as pipemap -ingest serves them.
const (
	radarPulses, radarGates = 16, 256
	ffthistN                = 128
)

var radarApp = serveApp{
	workload: "serve-radar",
	spec:     "radar64",
	rate:     1000,
	pipeline: func(m model.Mapping) (*fxrt.Pipeline, []fxrt.Edge, ingest.Codec, error) {
		r := apps.RadarRunner{Pulses: radarPulses, Gates: radarGates}
		pl, _, err := r.Pipeline(m)
		return pl, nil, apps.RadarCodec{Runner: r}, err
	},
	inputs: func(seed int64) []appInput {
		rng := rand.New(rand.NewSource(seed))
		ins := make([]appInput, 64)
		for i := range ins {
			// Keep the 16-tap echo inside the cube and off the CFAR
			// guard band at its edges.
			gate := 16 + rng.Intn(radarGates-48)
			doppler := 1 + rng.Intn(radarPulses-1)
			ins[i] = appInput{
				fields: fmt.Sprintf(`"seed":%d,"target_gate":%d,"target_doppler":%d`, rng.Intn(1<<20), gate, doppler),
				check:  radarCheck(gate, doppler),
			}
		}
		return ins
	},
}

// radarCheck accepts a result reporting at least one detection with the
// injected target among the strongest ones.
func radarCheck(gate, doppler int) func(json.RawMessage) error {
	return func(raw json.RawMessage) error {
		var res struct {
			Detections int `json:"detections"`
			Top        []struct {
				Doppler int `json:"doppler"`
				Range   int `json:"range"`
			} `json:"top"`
		}
		if err := json.Unmarshal(raw, &res); err != nil {
			return fmt.Errorf("radar result: %w", err)
		}
		if res.Detections < 1 {
			return fmt.Errorf("radar: no detections for a target at gate %d doppler %d", gate, doppler)
		}
		for _, d := range res.Top {
			if d.Range == gate && d.Doppler == doppler {
				return nil
			}
		}
		return fmt.Errorf("radar: target at gate %d doppler %d not among top %v", gate, doppler, res.Top)
	}
}

var ffthistApp = serveApp{
	workload: "serve-ffthist",
	spec:     "ffthist256",
	rate:     300,
	pipeline: func(m model.Mapping) (*fxrt.Pipeline, []fxrt.Edge, ingest.Codec, error) {
		r := apps.FFTHistRunner{N: ffthistN}
		pl, edges, err := r.Pipeline(m)
		return pl, edges, apps.FFTHistCodec{Runner: r}, err
	},
	inputs: func(seed int64) []appInput {
		rng := rand.New(rand.NewSource(seed))
		ins := make([]appInput, 64)
		for i := range ins {
			ins[i] = appInput{fields: fmt.Sprintf(`"seed":%d`, rng.Intn(1<<20)), check: ffthistCheck}
		}
		return ins
	},
}

// ffthistCheck accepts a histogram that counted every matrix element.
func ffthistCheck(raw json.RawMessage) error {
	var res struct {
		Count int64 `json:"count"`
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		return fmt.Errorf("ffthist result: %w", err)
	}
	if res.Count != ffthistN*ffthistN {
		return fmt.Errorf("ffthist: histogram count %d, want %d", res.Count, ffthistN*ffthistN)
	}
	return nil
}

// loadSpec parses specs/<name>.json under root.
func loadSpec(root, name string) (*model.Chain, model.Platform, error) {
	f, err := os.Open(filepath.Join(root, "specs", name+".json"))
	if err != nil {
		return nil, model.Platform{}, err
	}
	defer f.Close()
	c, pl, err := core.ParseChainSpec(f)
	if err != nil {
		return nil, model.Platform{}, fmt.Errorf("spec %s: %w", name, err)
	}
	return c, pl, nil
}

// solveDP cold-solves a spec with the exact DP and checks the mapping
// against the committed one.
func solveDP(r *run, name string, c *model.Chain, pl model.Platform) (core.Result, error) {
	res, err := core.Map(core.Request{Chain: c, Platform: pl, Algorithm: core.DP})
	if err != nil {
		return res, fmt.Errorf("solve %s: %w", name, err)
	}
	if got, want := res.Mapping.String(), committedMappings[name]; got != want {
		r.fail("%s: DP mapping %q, committed %q", name, got, want)
	}
	return res, nil
}

// server is one running ingestion plane behind the live HTTP server,
// configured as pipemap -ingest configures it by default.
type server struct {
	plane   *ingest.Plane
	srv     *live.Server
	url     string
	mapping model.Mapping
}

// startServer parses the spec, solves it, builds the kernel pipeline and
// the plane, and brings the listener up. With a tracer, every layer seam
// is wrapped.
func startServer(r *run, a serveApp, tr *tracer) (*server, error) {
	c, plat, err := loadSpec(r.root, a.spec)
	if err != nil {
		return nil, err
	}
	res, err := solveDP(r, a.spec, c, plat)
	if err != nil {
		return nil, err
	}
	m := res.Mapping
	pl, edges, codec, err := a.pipeline(m)
	if err != nil {
		return nil, err
	}
	pl.Retry = fxrt.RetryPolicy{MaxRetries: 2, Backoff: time.Millisecond}
	pl.DeadAfter = 2
	mon := live.NewMonitor(live.ConfigFromMapping(m))
	pl.Monitor = mon
	if tr != nil {
		wrapStages(pl, edges)
		codec = tracedCodec{Codec: codec, t: tr}
	}
	stream, err := pl.Stream(fxrt.StreamOptions{Edges: edges})
	if err != nil {
		return nil, err
	}
	var be ingest.Backend = stream
	if tr != nil {
		be = tracedBackend{Backend: stream}
	}
	reg := live.NewRegistry(live.Options{})
	flight := obs.NewFlightRecorder(256)
	engine := slo.New(slo.Config{
		Objectives: []slo.Objective{
			{Name: "availability", Target: 0.999},
			{Name: "latency_p99", Target: 0.99, LatencyMS: 2000},
		},
		PerTenant: true,
		Registry:  reg,
	})
	plane, err := ingest.NewBackend(ingest.Config{
		Queue:         ingest.QueueConfig{Depth: 64},
		Dispatchers:   4,
		DefaultBudget: 2 * time.Second,
		LivenessFloor: 0.5,
		Registry:      reg,
		Tracer:        obs.NewReqTracer(obs.ReqTracerConfig{Flight: flight}),
		SLO:           engine,
	}, be, mon)
	if err != nil {
		stream.Close()
		return nil, err
	}
	var submit http.Handler = ingest.SubmitHandler(plane, codec)
	if tr != nil {
		submit = tr.handler(submit)
	}
	srv := live.NewServer(live.ServerOptions{
		Monitor:  mon,
		Registry: reg,
		Ingest:   func() any { return plane.Stats() },
		SLO:      func() any { return engine.Report() },
		Flight:   flight.Snapshot,
		Extra: map[string]http.Handler{
			"/v1/submit": submit,
			"/v1/ingest": ingest.StatusHandler(plane),
		},
	})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		plane.Drain()
		return nil, err
	}
	return &server{plane: plane, srv: srv, url: "http://" + srv.Addr() + "/v1/submit", mapping: m}, nil
}

// close stops the listener and drains the plane, returning its final
// statistics.
func (s *server) close() (ingest.Stats, fxrt.Stats) {
	s.srv.Close()
	ds := s.plane.Drain()
	return s.plane.Stats(), ds.Stream
}

// setupReps is how many times each run sets up; setup_s is their
// interquartile mean, which stays close to their median.
const setupReps = 7

// serveWorkload runs one HTTP serving workload. The untraced pass reports
// set-up time, closed-loop peak and open-loop latency at the fixed rate;
// the traced pass reports the per-layer breakdown. Both interleave their
// serving chunks round by round with the planning steps on the served spec.
func serveWorkload(r *run, a serveApp) error {
	var setups []float64
	var srv *server
	for i := 0; i < setupReps; i++ {
		if srv != nil {
			r.closeServer(srv)
		}
		runtime.GC()
		t0 := now()
		s, err := startServer(r, a, nil)
		if err != nil {
			return err
		}
		setups = append(setups, float64(now()-t0))
		srv = s
	}
	setup := iqm(setups) / 1e9
	logf("setup (raw): %.4fs, interquartile mean of %d (spec, DP solve, kernel pipeline, plane, listener); mapping %s",
		setup, setupReps, srv.mapping.String())

	all, err := checkSpecs(r)
	if err != nil {
		return err
	}
	pln, err := newPlanner(r, []string{a.spec})
	if err != nil {
		return err
	}
	if r.traced {
		// The per-layer model efficiencies cover all four specs: the
		// paper's model-vs-measured test.
		pln.emu = all
	}
	client := newHTTPClient(srv.url, a.inputs(r.seed))
	defer client.close()
	S := r.seconds
	// Warm-up: let lazy set-up finish and caches fill before timing.
	client.closedLoop(secs(0.05*S), 0)
	rid := 1 << 20
	if r.traced {
		err = r.tracedServe(a, client, rid, pln)
	} else {
		var rates []float64
		var samples []sample
		// A quarter of the run measures peak, nearly half latency.
		for k := 0; k < rounds && err == nil; k++ {
			rs, ok, failed := client.closedLoop(secs(0.25*S/rounds), rid)
			rid += int(ok + failed)
			r.attempted += ok + failed
			r.failed += failed
			rates = append(rates, rs...)
			n := int(a.rate * 0.45 * S / rounds)
			samples = append(samples, client.openLoop(a.rate, n, rid)...)
			rid += n
			r.probeHost()
			err = pln.round()
		}
		speed := r.hostSpeed()
		r.set("setup_s", setup*speed)
		r.set("peak_rps", iqm(rates)/speed)
		logf("peak: %.1f req/s at host speed 1, %.1f raw; closed loop, %d connections (interquartile mean of %d windows of %v)",
			iqm(rates)/speed, iqm(rates), conns(), len(rates), rateWindow)
		r.reportLatency(samples, a.rate, speed)
	}
	logf("host probe: speed %.4f (interquartile mean chunk %.0fns of %d, reference %dns); setup %.4fs at host speed 1",
		r.hostSpeed(), iqm(r.chunkNS), len(r.chunkNS), refChunkNS, setup*r.hostSpeed())
	r.set("host.speed", r.hostSpeed())
	r.closeServer(srv)
	if err != nil {
		return err
	}
	if client.badOut > 0 {
		r.fail("%d responses failed their output check: %v", client.badOut, client.errs)
	} else if len(client.errs) > 0 {
		logf("request errors (counted as failed): %v", client.errs)
	}
	return pln.finish()
}

// closeServer drains a server and folds its plane counters into the run.
func (r *run) closeServer(s *server) {
	st, fx := s.close()
	var shed int64
	for _, n := range st.Shed {
		shed += n
	}
	r.values["ingest.shed"] += float64(shed)
	r.values["ingest.fail"] += float64(st.Failed)
	r.values["fxrt.retries"] += float64(fx.Retried)
}

// secs converts float seconds to a duration.
func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// Chunk sizes of the windowed latency percentiles: a window of 100
// requests (a tenth of a second on serve-radar) has ten samples beyond its
// p90, a window of 1000 ten beyond its p99.
const latChunk, p99Chunk = 100, 1000

// reportLatency records p50 and p90 latency from due time of an open-loop
// phase (each over the quiet windows of consecutive requests, at host
// speed 1), counting failures, and reports p99 and how late the generator
// ran. p99 is printed but not recorded as a metric: on the shared 2-vCPU
// host the workloads were defined on, host stalls spread it over ten runs
// by more than the largest bound a metric may have.
func (r *run) reportLatency(samples []sample, rate, speed float64) {
	var late []float64
	var failed int64
	for _, s := range samples {
		late = append(late, us(s.disp-s.due))
		if !s.ok {
			failed++
		}
	}
	r.attempted += int64(len(samples))
	r.failed += failed
	p50, p90 := chunked(samples, latChunk, 0.5), chunked(samples, latChunk, 0.9)
	r.set("p50_ms", p50*speed)
	r.set("p90_ms", p90*speed)
	r.set("loadgen.late_p99_us", pct(late, 0.99))
	var all []float64
	for _, s := range samples {
		if s.ok {
			all = append(all, ms(s.latency()))
		}
	}
	logf("latency at fixed %.0f/s open loop: p50 %.4fms p90 %.4fms at host speed 1 (quiet windows of %d requests); raw: p50 %.4fms p90 %.4fms, p99 %.4fms (quiet windows of %d); over all %d samples p50 %.4fms p90 %.4fms p99 %.4fms; %d failed; generator late p50 %.1fus p99 %.1fus",
		rate, p50*speed, p90*speed, latChunk, p50, p90, chunked(samples, p99Chunk, 0.99), p99Chunk,
		len(samples), pct(all, 0.5), pct(all, 0.9), pct(all, 0.99), failed, pct(late, 0.5), pct(late, 0.99))
}

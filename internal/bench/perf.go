package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"pipemap/internal/adapt"
	"pipemap/internal/apps"
	"pipemap/internal/core"
	"pipemap/internal/dp"
	"pipemap/internal/fleet"
	"pipemap/internal/fxrt"
	"pipemap/internal/ingest"
	"pipemap/internal/model"
	"pipemap/internal/obs"
	"pipemap/internal/obs/live"
)

// PerfOptions configures a performance-trajectory run.
type PerfOptions struct {
	// Runs is the number of timing repetitions per solver; the median is
	// reported (default 3).
	Runs int
	// DataSets is the number of data sets streamed through the fxrt
	// runtime (default 400).
	DataSets int
	// Speedup compresses the emulated stage times so a run finishes in
	// manageable wall time (default 50). Reported runtime throughput is
	// rescaled back to model units, so results are comparable across
	// speedups up to scheduler jitter.
	Speedup float64
}

func (o PerfOptions) withDefaults() PerfOptions {
	if o.Runs <= 0 {
		o.Runs = 3
	}
	if o.DataSets <= 0 {
		o.DataSets = 400
	}
	if o.Speedup <= 0 {
		o.Speedup = 50
	}
	return o
}

// SpecPerf is the performance record of one chain spec: solver latencies
// and the fxrt runtime's achieved throughput against the model bound.
type SpecPerf struct {
	Spec  string `json:"spec"`
	Tasks int    `json:"tasks"`
	Procs int    `json:"procs"`
	// DPSolveSeconds and GreedySolveSeconds are median wall times of one
	// full solve.
	DPSolveSeconds     float64 `json:"dpSolveSeconds"`
	GreedySolveSeconds float64 `json:"greedySolveSeconds"`
	// AdaptDecisionSeconds is the median wall time of one *warm* adaptive
	// controller decision cycle (ingest observations, refit the cost
	// models, re-solve, decide) on a tick where one stage's cost belief
	// moved — the steady-state latency the closed loop adds per decision,
	// riding the incremental solver rather than a cold full DP.
	AdaptDecisionSeconds float64 `json:"adaptDecisionSeconds"`
	// IncrementalSolveSeconds is the median wall time of one incremental
	// DP re-solve (warm solver, last task's execution cost drifted) — the
	// solver-only share of an adapt tick.
	IncrementalSolveSeconds float64 `json:"incrementalSolveSeconds"`
	// FleetRebalanceSeconds is the median, over runs, of the mean mutation
	// latency of a fixed fleet churn script on a fresh 256-processor pool
	// (see timeFleetChurn): the admission, departure, failure and restore
	// rebalances a fleet serving this spec pays.
	FleetRebalanceSeconds float64 `json:"fleetRebalanceSeconds"`
	// MemoHitRate is the controller solve cache's hit rate over the
	// measured adapt loop (alternating changed and unchanged ticks;
	// unchanged ticks should hit).
	MemoHitRate float64 `json:"memoHitRate"`
	// DPThroughput and GreedyThroughput are the predicted throughputs of
	// the two solvers' mappings (data sets/s, model units).
	DPThroughput     float64 `json:"dpThroughput"`
	GreedyThroughput float64 `json:"greedyThroughput"`
	// FxrtThroughput is the throughput the fxrt runtime achieved emulating
	// the DP mapping, rescaled to model units; FxrtEfficiency is its
	// fraction of the model bound.
	FxrtThroughput float64 `json:"fxrtThroughput"`
	FxrtEfficiency float64 `json:"fxrtEfficiency"`
	// TraceSpanNanos is the median cost of recording one stage span on a
	// sampled request trace — the per-attempt overhead tracing adds to the
	// runtime hot path when a request is sampled. TraceOffNanos is the
	// same call on an unsampled (nil) trace, which the zero-alloc contract
	// keeps at effectively zero.
	TraceSpanNanos float64 `json:"traceSpanNanos"`
	TraceOffNanos  float64 `json:"traceOffNanos"`
	Mapping        string  `json:"mapping"`
}

// PerfReport is the full performance trajectory written to
// BENCH_solver.json. Committed snapshots of this report over time are the
// repo's perf history.
type PerfReport struct {
	GoVersion string `json:"goVersion"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// CPUs is runtime.NumCPU() — the hardware parallelism of the machine
	// that produced the numbers; GoMaxProcs is runtime.GOMAXPROCS(0) — the
	// parallelism the solvers actually ran with. Both are provenance:
	// solve times are not comparable across different values.
	CPUs        int        `json:"cpus"`
	GoMaxProcs  int        `json:"gomaxprocs"`
	Runs        int        `json:"runs"`
	DataSets    int        `json:"dataSets"`
	Speedup     float64    `json:"speedup"`
	GeneratedAt string     `json:"generatedAt"`
	Specs       []SpecPerf `json:"specs"`
	// Kernels is the kernel-compute layer of the served applications.
	Kernels []KernelPerf `json:"kernels"`
}

// KernelPerf is the kernel compute cost of one served application: the
// wall time of one data set through all of the app's tasks on a
// one-module, one-processor mapping, so no transfer edge, replica or
// parallel split enters it, read at the host's quiet part (see
// quietPush).
type KernelPerf struct {
	App     string  `json:"app"`
	Shape   string  `json:"shape"`
	Seconds float64 `json:"seconds"`
}

// RunPerf measures solver latency (DP and greedy) and fxrt runtime
// throughput for each chain spec file, then the served applications'
// kernel time.
func RunPerf(specPaths []string, opt PerfOptions) (PerfReport, error) {
	opt = opt.withDefaults()
	rep := PerfReport{
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		CPUs:        runtime.NumCPU(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Runs:        opt.Runs,
		DataSets:    opt.DataSets,
		Speedup:     opt.Speedup,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
	}
	for _, path := range specPaths {
		sp, err := perfSpec(path, opt)
		if err != nil {
			return PerfReport{}, fmt.Errorf("bench: %s: %w", path, err)
		}
		rep.Specs = append(rep.Specs, sp)
	}
	kernels, err := timeKernels()
	if err != nil {
		return PerfReport{}, fmt.Errorf("bench: kernels: %w", err)
	}
	rep.Kernels = kernels
	return rep, nil
}

// timeKernels times the served applications' kernels at the shapes
// perfbench serves them: FFT-Hist at N=128 and radar on a 16x256 cube.
// Quick and full runs time them alike, so a quick run's reading compares
// with a full run's baseline.
func timeKernels() ([]KernelPerf, error) {
	ffthist := apps.FFTHistRunner{N: 128}
	radar := apps.RadarRunner{Pulses: 16, Gates: 256}
	cases := []struct {
		app, shape string
		chain      *model.Chain
		codec      ingest.Codec
		build      func(model.Mapping) (*fxrt.Pipeline, []fxrt.Edge, error)
	}{
		{"ffthist", "128x128", apps.FFTHistStructure(128), apps.FFTHistCodec{Runner: ffthist}, ffthist.Pipeline},
		{"radar", "16x256", apps.RadarStructure(), apps.RadarCodec{Runner: radar},
			func(m model.Mapping) (*fxrt.Pipeline, []fxrt.Edge, error) {
				pl, _, err := radar.Pipeline(m)
				return pl, nil, err
			}},
	}
	var out []KernelPerf
	for _, c := range cases {
		m := model.Mapping{Chain: c.chain, Modules: []model.Module{{Lo: 0, Hi: c.chain.Len(), Procs: 1, Replicas: 1}}}
		pl, edges, err := c.build(m)
		if err != nil {
			return nil, err
		}
		sec, err := quietPush(pl, edges, c.codec)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.app, err)
		}
		out = append(out, KernelPerf{App: c.app, Shape: c.shape, Seconds: sec})
	}
	return out, nil
}

// The kernels reading is the smallest of kernelBlocks medians, each over
// kernelBlockLen consecutive pushes. The shared host's speed moves in
// phases, some shorter than a run: a median over every push mixes them,
// while the quietest block's median reads the kernels whenever a run
// sees a quiet phase.
const (
	kernelBlocks   = 12
	kernelBlockLen = 16
)

// quietPush streams seeded data sets through pl one at a time, times each
// from push to result, and returns the smallest median over blocks of
// kernelBlockLen of them. Each data set is decoded and encoded by codec,
// as a served request is, outside the timed push; the first few warm the
// caches and buffer pools and are not timed.
func quietPush(pl *fxrt.Pipeline, edges []fxrt.Edge, codec ingest.Codec) (float64, error) {
	const warm = 5
	s, err := pl.Stream(fxrt.StreamOptions{Edges: edges})
	if err != nil {
		return 0, err
	}
	defer s.Close()
	times := make([]float64, 0, kernelBlocks*kernelBlockLen)
	for i := 0; i < warm+cap(times); i++ {
		ds, err := codec.Decode(json.RawMessage(fmt.Sprintf(`{"seed":%d}`, i)))
		if err != nil {
			return 0, err
		}
		start := time.Now()
		res, err := s.Push(context.Background(), ds)
		if err != nil {
			return 0, err
		}
		r := <-res
		d := time.Since(start)
		if r.Err != nil {
			return 0, r.Err
		}
		if _, err := codec.Encode(r.DS); err != nil {
			return 0, err
		}
		if i >= warm {
			times = append(times, d.Seconds())
		}
	}
	quiet := math.Inf(1)
	for b := 0; b < kernelBlocks; b++ {
		block := times[b*kernelBlockLen : (b+1)*kernelBlockLen]
		sort.Float64s(block)
		quiet = math.Min(quiet, block[kernelBlockLen/2])
	}
	return quiet, nil
}

func perfSpec(path string, opt PerfOptions) (SpecPerf, error) {
	f, err := os.Open(path)
	if err != nil {
		return SpecPerf{}, err
	}
	chain, pl, err := core.ParseChainSpec(f)
	f.Close()
	if err != nil {
		return SpecPerf{}, err
	}
	sp := SpecPerf{Spec: path, Tasks: chain.Len(), Procs: pl.Procs}

	dpRes, dpTime, err := timeSolve(core.Request{Chain: chain, Platform: pl, Algorithm: core.DP}, opt.Runs)
	if err != nil {
		return SpecPerf{}, err
	}
	sp.DPSolveSeconds = dpTime
	sp.DPThroughput = dpRes.Throughput
	sp.Mapping = dpRes.Mapping.String()

	grRes, grTime, err := timeSolve(core.Request{Chain: chain, Platform: pl, Algorithm: core.Greedy}, opt.Runs)
	if err != nil {
		return SpecPerf{}, err
	}
	sp.GreedySolveSeconds = grTime
	sp.GreedyThroughput = grRes.Throughput

	adTime, hitRate, err := timeAdaptStep(chain, pl, dpRes.Mapping, opt.Runs)
	if err != nil {
		return SpecPerf{}, err
	}
	sp.AdaptDecisionSeconds = adTime
	sp.MemoHitRate = hitRate

	incTime, err := timeIncrementalSolve(chain, pl, opt.Runs)
	if err != nil {
		return SpecPerf{}, err
	}
	sp.IncrementalSolveSeconds = incTime

	if sp.FleetRebalanceSeconds, err = timeFleetChurn(chain, pl, opt.Runs); err != nil {
		return SpecPerf{}, err
	}

	// Runtime throughput: emulate the DP mapping on the fxrt runtime (the
	// same path `pipemap -serve` exercises) and rescale the observed rate
	// back to model units.
	p, err := fxrt.ModelPipeline(dpRes.Mapping, opt.Speedup)
	if err != nil {
		return SpecPerf{}, err
	}
	stats, err := p.Run(func(i int) fxrt.DataSet { return i }, opt.DataSets, 0)
	if err != nil {
		return SpecPerf{}, err
	}
	sp.FxrtThroughput = stats.Throughput / opt.Speedup
	if sp.DPThroughput > 0 {
		sp.FxrtEfficiency = sp.FxrtThroughput / sp.DPThroughput
	}
	sp.TraceSpanNanos, sp.TraceOffNanos = timeTraceSpan(opt.Runs)
	return sp, nil
}

// timeTraceSpan measures the per-stage-span cost of request tracing: the
// median nanoseconds to record one attempt span on a sampled trace, and
// the same call on an unsampled (nil) trace. The sampled loop uses a
// fresh trace per repetition at a realistic span count, so slice growth
// is amortized the way a real request's trace amortizes it.
func timeTraceSpan(runs int) (on, off float64) {
	const spans = 1024
	tr := obs.NewReqTracer(obs.ReqTracerConfig{SampleRate: 1})
	iters := 4 * runs
	if iters < 8 {
		iters = 8
	}
	onTimes := make([]float64, 0, iters)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		_, rt := tr.Start(obs.TraceID{}, false, "bench", t0)
		start := time.Now()
		for j := 0; j < spans; j++ {
			rt.StageSpan("stage", 1, 0, 0, "ok", t0, time.Microsecond)
		}
		onTimes = append(onTimes, float64(time.Since(start).Nanoseconds())/spans)
		tr.Finish(rt, "ok", 0, 0)
	}
	sort.Float64s(onTimes)

	var nilTrace *obs.ReqTrace
	start := time.Now()
	const offCalls = 1 << 18
	for j := 0; j < offCalls; j++ {
		nilTrace.StageSpan("stage", 1, 0, 0, "ok", t0, time.Microsecond)
	}
	off = float64(time.Since(start).Nanoseconds()) / offCalls
	return onTimes[len(onTimes)/2], off
}

// timeAdaptStep measures the adaptive controller's steady-state decision
// latency: a single warm controller is driven through an adapt loop where
// every measured tick drifts the *last* stage's observed latency (so at
// most that module's task costs move — the common small-update case the
// incremental solver targets), interleaved with repeat ticks whose beliefs
// do not move (memo hits). The first, cold tick (full DP solve) warms the
// solver and cache and is excluded. Returns the median changed-tick
// latency and the solve cache's hit rate over the loop.
func timeAdaptStep(chain *model.Chain, pl model.Platform, m model.Mapping, runs int) (float64, float64, error) {
	resp := m.ResponseTimes()
	c, err := adapt.NewController(adapt.Config{
		Chain: chain, Platform: pl, Initial: m,
		// One-observation fit window so each tick's refit reflects exactly
		// the fabricated observation, and a threshold no candidate can
		// clear so the loop never migrates off the measured mapping.
		FitCycles: 1, FitWindow: 1, Threshold: 10,
	})
	if err != nil {
		return 0, 0, err
	}
	observe := func(scale float64) adapt.Observation {
		h := live.Health{Stages: make([]live.StageHealth, len(m.Modules))}
		for j, mod := range m.Modules {
			s := 1.25
			if j == len(m.Modules)-1 {
				s = scale
			}
			h.Stages[j] = live.StageHealth{
				Stage: j, Replicas: mod.Replicas, Live: mod.Replicas,
				Latency: live.WindowStat{Count: 8, Mean: resp[j] * s},
			}
		}
		return adapt.Observation{Health: h, Throughput: m.Throughput()}
	}

	scale := 1.25
	c.Step(observe(scale)) // cold: full solve, warms solver + memo

	iters := 4 * runs
	if iters < 12 {
		iters = 12
	}
	times := make([]float64, 0, iters)
	for i := 0; i < iters; i++ {
		scale += 0.01 // ~0.8% belief move on the last stage: above epsilon
		o := observe(scale)
		start := time.Now()
		c.Step(o)
		times = append(times, time.Since(start).Seconds())
		c.Step(observe(scale)) // repeat: beliefs identical, memo hit
	}
	sort.Float64s(times)
	hitRate := 0.0
	if memo := c.Status().Memo; memo != nil {
		hitRate = memo.HitRate
	}
	return times[len(times)/2], hitRate, nil
}

// timeIncrementalSolve measures the solver-only share of a warm adapt
// tick: a retained dp.Solver re-solving after the last task's execution
// cost drifted. The median over the iterations is reported.
func timeIncrementalSolve(chain *model.Chain, pl model.Platform, runs int) (float64, error) {
	s, err := dp.NewSolver(chain, pl, dp.Options{})
	if err != nil {
		return 0, err
	}
	if _, err := s.Solve(); err != nil {
		return 0, err
	}
	k := chain.Len()
	tasks := make([]model.Task, k)
	copy(tasks, chain.Tasks)
	pc := &model.Chain{Tasks: tasks, ICom: chain.ICom, ECom: chain.ECom}
	changed := []int{k - 1}
	factor := 1.0
	iters := 10 * runs
	if iters < 30 {
		iters = 30
	}
	times := make([]float64, 0, iters)
	for i := 0; i < iters; i++ {
		factor *= 1.01
		tasks[k-1].Exec = model.ScaleCost{F: chain.Tasks[k-1].Exec, K: factor}
		start := time.Now()
		if _, err := s.Resolve(pc, changed); err != nil {
			return 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	sort.Float64s(times)
	return times[len(times)/2], nil
}

// churnPool is the shared processor pool of the fleet churn script.
const churnPool = 256

// timeFleetChurn measures fleet rebalance latency. Each run admits the
// spec six times on a fresh churnPool-processor fleet, at three cost
// scales and capped at the spec's processor count, then fails 32
// processors, departs one pipeline, re-admits it, restores the 32, departs
// another, fails 16 and restores them. It returns the median over runs of
// the mean latency of those 13 mutations.
func timeFleetChurn(chain *model.Chain, pl model.Platform, runs int) (float64, error) {
	scales := []float64{1, 1.05, 1.1}
	chains := make([]*model.Chain, len(scales))
	for i, k := range scales {
		tasks := append([]model.Task(nil), chain.Tasks...)
		for j := range tasks {
			tasks[j].Exec = model.ScaleCost{F: chain.Tasks[j].Exec, K: k}
		}
		chains[i] = &model.Chain{Tasks: tasks, ICom: chain.ICom, ECom: chain.ECom}
	}
	means := make([]float64, 0, runs)
	for r := 0; r < runs; r++ {
		f, err := fleet.New(fleet.Config{Pool: model.Platform{Procs: churnPool, MemPerProc: pl.MemPerProc}})
		if err != nil {
			return 0, err
		}
		var ids []int64
		admit := func(c *model.Chain) func() error {
			return func() error {
				p, err := f.Admit(fleet.Spec{Tenant: "churn", Chain: c, MaxProcs: pl.Procs})
				ids = append(ids, p.ID)
				return err
			}
		}
		script := []func() error{
			admit(chains[0]), admit(chains[0]), admit(chains[1]),
			admit(chains[1]), admit(chains[2]), admit(chains[2]),
			func() error { return f.FailProcs(32) },
			func() error { return f.Depart(ids[1]) },
			admit(chains[1]),
			func() error { return f.RestoreProcs(32) },
			func() error { return f.Depart(ids[0]) },
			func() error { return f.FailProcs(16) },
			func() error { return f.RestoreProcs(16) },
		}
		var total time.Duration
		for i, step := range script {
			start := time.Now()
			err := step()
			total += time.Since(start)
			if err != nil {
				return 0, fmt.Errorf("fleet churn step %d: %w", i, err)
			}
		}
		means = append(means, total.Seconds()/float64(len(script)))
	}
	sort.Float64s(means)
	return means[len(means)/2], nil
}

// timeSolve solves the request runs times and returns the last result and
// the median wall time.
func timeSolve(req core.Request, runs int) (core.Result, float64, error) {
	var res core.Result
	times := make([]float64, 0, runs)
	for i := 0; i < runs; i++ {
		start := time.Now()
		r, err := core.Map(req)
		if err != nil {
			return core.Result{}, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		res = r
	}
	sort.Float64s(times)
	return res, times[len(times)/2], nil
}

// RenderPerf formats the report as a readable table.
func RenderPerf(rep PerfReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "perf trajectory (%s %s/%s, %d CPUs, GOMAXPROCS=%d, %d data sets, %gx speedup, median of %d):\n",
		rep.GoVersion, rep.GOOS, rep.GOARCH, rep.CPUs, rep.GoMaxProcs, rep.DataSets, rep.Speedup, rep.Runs)
	fmt.Fprintf(&b, "%-28s %12s %12s %12s %12s %12s %6s %10s %10s %8s %10s\n",
		"spec", "dp solve", "greedy solve", "incr solve", "adapt step", "rebalance", "memo", "model t/s", "fxrt t/s", "eff", "trace/span")
	for _, sp := range rep.Specs {
		fmt.Fprintf(&b, "%-28s %10.3fms %10.3fms %10.3fms %10.3fms %10.3fms %5.0f%% %10.4f %10.4f %7.1f%% %8.0fns\n",
			sp.Spec, sp.DPSolveSeconds*1e3, sp.GreedySolveSeconds*1e3, sp.IncrementalSolveSeconds*1e3,
			sp.AdaptDecisionSeconds*1e3, sp.FleetRebalanceSeconds*1e3, 100*sp.MemoHitRate,
			sp.DPThroughput, sp.FxrtThroughput, 100*sp.FxrtEfficiency, sp.TraceSpanNanos)
	}
	for _, k := range rep.Kernels {
		fmt.Fprintf(&b, "kernels %-20s %10.3fms per data set\n", k.App+" "+k.Shape, k.Seconds*1e3)
	}
	return b.String()
}

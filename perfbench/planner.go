package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"

	"pipemap/internal/adapt"
	"pipemap/internal/core"
	"pipemap/internal/dp"
	"pipemap/internal/fleet"
	"pipemap/internal/fxrt"
	"pipemap/internal/model"
	"pipemap/internal/obs/live"
)

// rounds is how many rounds a run interleaves its measurements over. Each
// round takes a slice of every phase, so every metric samples the host at
// as many separate moments: a timing's quiet tenth is then read from
// several rounds that caught the host in its fast state, even in a run
// where that state is rare. (With ten rounds, some whole runs read 1.5×
// slower.)
const rounds = 40

// Per-round work of the planning steps.
const (
	coldSolvesPerRound = 1   // cold DP and greedy solves of every spec
	ticksPerRound      = 3   // moved adapt ticks per spec (and as many unchanged)
	resolvesPerRound   = 10  // incremental DP re-solves per spec
	churnsPerRound     = 1   // runs of the fleet churn script
	emulateFor         = 1.0 // seconds each spec's emulation streams, once
	hopItems           = 400 // single items pushed through each zero-work pipeline
)

// planner runs the planning steps on a set of specs — cold DP and greedy
// solves, the warm adapt loop and incremental re-solves, a seeded fleet
// churn script — one slice per round, then the emulated model-vs-measured
// throughput and the zero-work hop cost once. Serve workloads plan their
// own spec.
type planner struct {
	r     *run
	specs []planned
	emu   []planned // specs whose emulation finish measures; specs by default

	solveNS   [][]float64 // per spec, cold DP
	totalNS   []float64   // per rep, all specs
	greedyNS  []float64
	replans   []*replanner
	script    []admission
	readmit   admission
	churnNS   [][]float64 // per mutation of the script, its latency in each run
	admitNS   []float64
	failNS    []float64
	cacheHits int64
	lookups   int64
}

// admission is one scripted fleet admission: a spec at a cost scale.
type admission struct {
	spec  int
	scale float64
}

func newPlanner(r *run, names []string) (*planner, error) {
	specs, err := loadPlanned(r, names)
	if err != nil {
		return nil, err
	}
	p := &planner{r: r, specs: specs, emu: specs, solveNS: make([][]float64, len(specs))}
	for _, s := range specs {
		rp, err := newReplanner(s)
		if err != nil {
			return nil, err
		}
		p.replans = append(p.replans, rp)
	}
	// The churn script: six admissions cycling through the specs at seeded
	// cost scales, and one re-admission. The seed draws the scales, within
	// 2% of the spec's costs; the pattern of repeats is fixed (equal scales
	// share one solve through the fleet cache), so every seed's script
	// hits the cache as often and costs about the same.
	rng := rand.New(rand.NewSource(r.seed))
	base := 1 + 0.02*rng.Float64()
	scales := []float64{base, base * 1.05, base * 1.1}
	for i, k := range []int{0, 0, 1, 1, 2, 0} {
		p.script = append(p.script, admission{spec: i % len(specs), scale: scales[k]})
	}
	p.readmit = p.script[2]
	return p, nil
}

// round runs one slice of each interleaved step, each from a collected
// heap so where the previous step left the collector does not move it.
func (p *planner) round() error {
	steps := []func() error{p.coldSolves, p.replan}
	for i := 0; i < churnsPerRound; i++ {
		steps = append(steps, p.churn)
	}
	for _, step := range steps {
		runtime.GC()
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// coldSolves times cold DP and greedy solves of every spec and checks that
// DP throughput is at least greedy's.
func (p *planner) coldSolves() error {
	r := p.r
	for rep := 0; rep < coldSolvesPerRound; rep++ {
		total := 0.0
		for i, s := range p.specs {
			req := core.Request{Chain: s.chain, Platform: s.plat, Algorithm: core.DP}
			var res, gres core.Result
			d, err := timed(func() (err error) { res, err = core.Map(req); return err })
			r.attempted++
			if err != nil {
				r.failed++
				return fmt.Errorf("DP solve %s: %w", s.name, err)
			}
			p.solveNS[i] = append(p.solveNS[i], float64(d))
			total += float64(d)
			req.Algorithm = core.Greedy
			g, err := timed(func() (err error) { gres, err = core.Map(req); return err })
			r.attempted++
			if err != nil {
				r.failed++
				return fmt.Errorf("greedy solve %s: %w", s.name, err)
			}
			p.greedyNS = append(p.greedyNS, float64(g))
			if res.Throughput < gres.Throughput*(1-1e-9) {
				r.fail("%s: DP throughput %g below greedy %g", s.name, res.Throughput, gres.Throughput)
			}
		}
		p.totalNS = append(p.totalNS, total)
	}
	return nil
}

// replanner holds one spec's warm adapt.Controller and retained dp.Solver.
type replanner struct {
	spec  planned
	c     *adapt.Controller
	resp  []float64
	scale float64
	moved []float64 // moved-tick decision times

	solver   *dp.Solver
	tasks    []model.Task
	chain    *model.Chain // shares tasks; the last task's cost drifts
	factor   float64
	resolves []float64
}

func newReplanner(s planned) (*replanner, error) {
	m := s.res.Mapping
	c, err := adapt.NewController(adapt.Config{
		Chain: s.chain, Platform: s.plat, Initial: m,
		// A one-observation fit window makes each tick's refit reflect
		// exactly its observation; a threshold no candidate clears keeps
		// the loop on the measured mapping.
		FitCycles: 1, FitWindow: 1, Threshold: 10,
	})
	if err != nil {
		return nil, fmt.Errorf("adapt %s: %w", s.name, err)
	}
	rp := &replanner{spec: s, c: c, resp: m.ResponseTimes(), scale: 1.25, factor: 1}
	c.Step(rp.observe()) // cold: full solve, warms the solver and memo
	rp.solver, err = dp.NewSolver(s.chain, s.plat, dp.Options{})
	if err != nil {
		return nil, err
	}
	if _, err := rp.solver.Solve(); err != nil {
		return nil, err
	}
	rp.tasks = append([]model.Task(nil), s.chain.Tasks...)
	rp.chain = &model.Chain{Tasks: rp.tasks, ICom: s.chain.ICom, ECom: s.chain.ECom}
	return rp, nil
}

// observe fabricates a health observation: every stage 25% slower than
// modelled, the last one by the current scale.
func (rp *replanner) observe() adapt.Observation {
	m := rp.spec.res.Mapping
	h := live.Health{Stages: make([]live.StageHealth, len(m.Modules))}
	for j, mod := range m.Modules {
		s := 1.25
		if j == len(m.Modules)-1 {
			s = rp.scale
		}
		h.Stages[j] = live.StageHealth{
			Stage: j, Replicas: mod.Replicas, Live: mod.Replicas,
			Latency: live.WindowStat{Count: 8, Mean: rp.resp[j] * s},
		}
	}
	return adapt.Observation{Health: h, Throughput: m.Throughput()}
}

// replan alternates moved ticks (a ~0.8% belief move on the last stage,
// above the refit dead-band) with unchanged ones (memo hits), then drifts
// the last task's cost under the retained solver.
func (p *planner) replan() error {
	for _, rp := range p.replans {
		for i := 0; i < ticksPerRound; i++ {
			rp.scale += 0.01
			o := rp.observe()
			d, _ := timed(func() error { rp.c.Step(o); return nil })
			rp.moved = append(rp.moved, float64(d))
			rp.c.Step(rp.observe())
		}
		p.r.attempted += 2 * ticksPerRound
		k := rp.chain.Len()
		for i := 0; i < resolvesPerRound; i++ {
			rp.factor *= 1.001
			rp.tasks[k-1].Exec = model.ScaleCost{F: rp.spec.chain.Tasks[k-1].Exec, K: rp.factor}
			d, err := timed(func() error { _, err := rp.solver.Resolve(rp.chain, []int{k - 1}); return err })
			p.r.attempted++
			if err != nil {
				p.r.failed++
				return fmt.Errorf("resolve %s: %w", rp.spec.name, err)
			}
			rp.resolves = append(rp.resolves, float64(d))
		}
	}
	return nil
}

// scaled returns the chain with every task's execution cost scaled by k.
func scaled(c *model.Chain, k float64) *model.Chain {
	tasks := append([]model.Task(nil), c.Tasks...)
	for i := range tasks {
		tasks[i].Exec = model.ScaleCost{F: c.Tasks[i].Exec, K: k}
	}
	return &model.Chain{Tasks: tasks, ICom: c.ICom, ECom: c.ECom}
}

// churnPool is the fleet's shared processor pool.
const churnPool = 256

// churn runs the churn script once on a fresh fleet — the admissions, a
// processor failure, departures, the re-admission, restores — timing every
// mutation, and checks the fleet's accounting invariant afterwards.
func (p *planner) churn() error {
	r := p.r
	f, err := fleet.New(fleet.Config{Pool: model.Platform{Procs: churnPool, MemPerProc: p.specs[0].plat.MemPerProc}})
	if err != nil {
		return err
	}
	var ids []int64
	var lat []float64
	op := func(kind string, fn func() error) error {
		d, err := timed(fn)
		r.attempted++
		if err != nil {
			r.failed++
			return fmt.Errorf("fleet %s: %w", kind, err)
		}
		lat = append(lat, float64(d))
		switch kind {
		case "admit":
			p.admitNS = append(p.admitNS, float64(d))
		case "fail":
			p.failNS = append(p.failNS, float64(d))
		}
		return nil
	}
	admit := func(a admission) error {
		s := p.specs[a.spec]
		return op("admit", func() error {
			pl, err := f.Admit(fleet.Spec{
				Tenant: fmt.Sprintf("t%d", len(ids)), Chain: scaled(s.chain, a.scale), MaxProcs: s.plat.Procs,
			})
			ids = append(ids, pl.ID)
			return err
		})
	}
	for _, a := range p.script {
		if err := admit(a); err != nil {
			return err
		}
	}
	steps := []struct {
		kind string
		fn   func() error
	}{
		{"fail", func() error { return f.FailProcs(churnPool / 8) }},
		{"depart", func() error { return f.Depart(ids[1]) }},
		{"admit", func() error { return admit(p.readmit) }},
		{"restore", func() error { return f.RestoreProcs(churnPool / 8) }},
		{"depart", func() error { return f.Depart(ids[0]) }},
		{"fail", func() error { return f.FailProcs(churnPool / 16) }},
		{"restore", func() error { return f.RestoreProcs(churnPool / 16) }},
	}
	for _, st := range steps {
		if st.kind == "admit" {
			err = st.fn() // admit times itself
		} else {
			err = op(st.kind, st.fn)
		}
		if err != nil {
			return err
		}
	}
	for j, d := range lat {
		if j == len(p.churnNS) {
			p.churnNS = append(p.churnNS, nil)
		}
		p.churnNS[j] = append(p.churnNS[j], d)
	}
	s := f.Stats()
	if s.Admitted != int64(s.Placed)+s.Departed+s.Evicted {
		r.fail("fleet accounting: admitted %d != placed %d + departed %d + evicted %d",
			s.Admitted, s.Placed, s.Departed, s.Evicted)
	}
	p.cacheHits += s.Cache.Hits
	p.lookups += s.Cache.Hits + s.Cache.Misses
	return nil
}

// finish records the interleaved steps' metrics, then measures the
// emulated model-vs-measured throughput and the executor's hop cost.
func (p *planner) finish() error {
	r := p.r
	// The end-to-end solve_ms and rebalance_ms are at host speed 1; the
	// per-layer metrics are raw.
	speed := r.hostSpeed()
	for i, s := range p.specs {
		r.set("dp."+s.name+".solve_ms", fast(p.solveNS[i])/1e6)
	}
	r.set("solve_ms", fast(p.totalNS)/1e6*speed)
	r.set("greedy.solve_us", fast(p.greedyNS)/1e3)
	logf("cold solves: all %d spec(s) %.3fms at host speed 1, %.3fms raw (10th percentile of %d reps; raw median %.3fms); greedy %.1fus",
		len(p.specs), fast(p.totalNS)/1e6*speed, fast(p.totalNS)/1e6, len(p.totalNS), pct(p.totalNS, 0.5)/1e6, fast(p.greedyNS)/1e3)

	// adapt.replan_us is the sum over specs of the quiet-tenth moved-tick
	// decision: the time to replan every spec once. It is a per-layer
	// metric: its run-level spread sits at the largest bound an end-to-end
	// metric may have (see README.md).
	var total float64
	var hits, lookups, ticks int64
	var parts []string
	for _, rp := range p.replans {
		total += fast(rp.moved)
		parts = append(parts, fmt.Sprintf("%s %.0fus", rp.spec.name, fast(rp.moved)/1e3))
		r.set("dp."+rp.spec.name+".resolve_us", fast(rp.resolves)/1e3)
		if st := rp.c.Status().Memo; st != nil {
			hits += st.Hits
			lookups += st.Hits + st.Misses
		}
		ticks += 1 + 2*int64(len(rp.moved))
	}
	r.set("adapt.replan_us", total/1e3)
	r.set("adapt.ticks", float64(ticks))
	r.set("adapt.memo_hit_rate", ratio(hits, lookups))
	logf("replan: moved-tick adapt decisions, sum of per-spec 10th percentiles %.1fus (%s; %d moved of %d ticks per spec); memo hit rate %.3f of %d lookups",
		total/1e3, strings.Join(parts, ", "), rounds*ticksPerRound, ticks/int64(len(p.replans)), ratio(hits, lookups), lookups)

	// rebalance_ms is the script's mean mutation latency, each mutation
	// taken at the quiet tenth of its runs.
	var churn float64
	for _, ns := range p.churnNS {
		churn += fast(ns) / float64(len(p.churnNS))
	}
	r.set("rebalance_ms", churn/1e6*speed)
	r.set("fleet.admit_ms", fast(p.admitNS)/1e6)
	r.set("fleet.fail_ms", fast(p.failNS)/1e6)
	r.set("fleet.cache_hit_rate", ratio(p.cacheHits, p.lookups))
	r.set("fleet.lookups", float64(p.lookups))
	logf("fleet churn: mean mutation %.3fms at host speed 1, %.3fms raw (each of the %d mutations at the 10th percentile of %d script runs; admit %.3fms, fail %.3fms); cache hit rate %.3f of %d lookups",
		churn/1e6*speed, churn/1e6, len(p.churnNS), len(p.churnNS[0]), fast(p.admitNS)/1e6, fast(p.failNS)/1e6,
		ratio(p.cacheHits, p.lookups), p.lookups)

	runtime.GC()
	if err := p.emulate(); err != nil {
		return err
	}
	return p.hops()
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// emulate streams each emulated spec's DP mapping through
// fxrt.ModelPipeline and compares the measured throughput with the DP
// prediction; model_efficiency is the lowest ratio.
func (p *planner) emulate() error {
	r := p.r
	minEff := 0.0
	for i, s := range p.emu {
		pl, err := fxrt.ModelPipeline(s.res.Mapping, emuSpeedup)
		if err != nil {
			return err
		}
		st, err := pl.Stream(fxrt.StreamOptions{})
		if err != nil {
			return err
		}
		rates, ok, failed, err := streamClosedLoop(st, secs(emulateFor))
		st.Close()
		if err != nil {
			return fmt.Errorf("emulate %s: %w", s.name, err)
		}
		r.attempted += ok + failed
		r.failed += failed
		rate := iqm(rates)
		eff := rate / (s.res.Throughput * emuSpeedup)
		r.set("fxrt.model."+s.name+".efficiency", eff)
		if i == 0 || eff < minEff {
			minEff = eff
		}
		minSleep := 0.0
		for j, t := range s.res.Mapping.ResponseTimes() {
			if d := t / emuSpeedup * 1e6; j == 0 || d < minSleep {
				minSleep = d
			}
		}
		logf("model %s: measured %.1f/s vs DP-predicted %.1f/s = efficiency %.3f (shortest stage sleep %.1fus vs sleep floor %.1fus)",
			s.name, rate, s.res.Throughput*emuSpeedup, eff, minSleep, r.values["fxrt.sleep_floor_us"])
	}
	r.set("model_efficiency", minEff)
	return nil
}

// hops measures the executor's per-hop cost: single items pushed one at a
// time through a zero-work pipeline of each mapping's shape, their
// push-to-sink latency divided by the hand-offs (stages plus the sink).
func (p *planner) hops() error {
	var per []float64
	for _, s := range p.specs {
		st, err := zeroWork(s.res.Mapping).Stream(fxrt.StreamOptions{})
		if err != nil {
			return err
		}
		hops := float64(len(s.res.Mapping.Modules) + 1)
		for i := 0; i < hopItems; i++ {
			ch, err := st.Push(context.Background(), i)
			if err != nil {
				st.Close()
				return err
			}
			res := <-ch
			per = append(per, float64(res.Latency)/hops)
		}
		st.Close()
	}
	p.r.set("fxrt.hop_us", pct(per, 0.5)/1e3)
	logf("fxrt hop: median %.2fus per hand-off through zero-work pipelines", pct(per, 0.5)/1e3)
	return nil
}

package main

import (
	"context"
	"sync"
	"time"

	"pipemap/internal/core"
	"pipemap/internal/fxrt"
	"pipemap/internal/model"
)

// emuSpeedup is the emulation speedup: solved mappings run on
// fxrt.ModelPipeline, each stage sleeping its modelled time divided by it
// (the speedup BENCH_solver.json uses).
const emuSpeedup = 50

// planned is one parsed and DP-solved spec.
type planned struct {
	name  string
	chain *model.Chain
	plat  model.Platform
	res   core.Result
}

// loadPlanned parses and cold-solves the named specs.
func loadPlanned(r *run, names []string) ([]planned, error) {
	out := make([]planned, 0, len(names))
	for _, name := range names {
		c, pl, err := loadSpec(r.root, name)
		if err != nil {
			return nil, err
		}
		res, err := solveDP(r, name, c, pl)
		if err != nil {
			return nil, err
		}
		out = append(out, planned{name: name, chain: c, plat: pl, res: res})
	}
	return out, nil
}

// checkSpecs solves all four committed specs once, untimed: each DP
// mapping must equal the committed one (solveDP checks it) and DP
// throughput must be at least greedy's. It returns the solved specs.
func checkSpecs(r *run) ([]planned, error) {
	specs, err := loadPlanned(r, specNames)
	if err != nil {
		return nil, err
	}
	for _, s := range specs {
		g, err := core.Map(core.Request{Chain: s.chain, Platform: s.plat, Algorithm: core.Greedy})
		r.attempted += 2
		if err != nil {
			r.failed++
			return nil, err
		}
		if s.res.Throughput < g.Throughput*(1-1e-9) {
			r.fail("%s: DP throughput %g below greedy %g", s.name, s.res.Throughput, g.Throughput)
		}
	}
	return specs, nil
}

// zeroWork is a pipeline of the mapping's shape whose stages do nothing:
// pushing through it costs only the executor's hops.
func zeroWork(m model.Mapping) *fxrt.Pipeline {
	pl := &fxrt.Pipeline{}
	for _, mod := range m.Modules {
		pl.Stages = append(pl.Stages, fxrt.Stage{
			Name: "zero", Workers: 1, Replicas: mod.Replicas,
			Run: func(_ *fxrt.StageCtx, in fxrt.DataSet) (fxrt.DataSet, error) { return in, nil },
		})
	}
	return pl
}

// emuWindow is the window over which emulated completion rates are
// counted: long enough to hold several completions of the slowest stage
// (threestage's emulated stages sleep ~18 ms), so counting between a
// window's first and last completion does not round its rate up.
const emuWindow = 250 * time.Millisecond

// streamClosedLoop pushes into s back to back for d (blocking on
// backpressure) and returns the completions per second of each emuWindow
// after the first, and the counts.
func streamClosedLoop(s *fxrt.Stream, d time.Duration) (rates []float64, ok, failed int64, err error) {
	type pushed struct {
		at int64
		ch <-chan fxrt.StreamResult
	}
	// Sized so the pusher never waits on the collector: the stream's own
	// bounded inboxes are the backpressure under test.
	q := make(chan pushed, 4096)
	var done []int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for p := range q {
			res := <-p.ch
			if res.Err != nil {
				failed++
				continue
			}
			done = append(done, p.at+int64(res.Latency))
		}
	}()
	start := now()
	stop := start + int64(d)
	for i := 0; now() < stop; i++ {
		at := now()
		ch, perr := s.Push(context.Background(), i)
		if perr != nil {
			err = perr
			break
		}
		q <- pushed{at: at, ch: ch}
	}
	close(q)
	wg.Wait()
	if err != nil {
		return nil, int64(len(done)), failed, err
	}
	win := int64(emuWindow)
	return windowRates(done, start+win, stop, win), int64(len(done)), failed, nil
}

package core

import (
	"math/rand"
	"sync"
	"testing"

	"pipemap/internal/dp"
	"pipemap/internal/machine"
	"pipemap/internal/model"
	"pipemap/internal/testutil"
	"pipemap/internal/tradeoff"
)

// gridOptions are the three option sets the grid checks run under.
var gridOptions = []dp.Options{{}, {DisableReplication: true}, {DisableClustering: true}}

// point is one transfer-cost read: edge e at (ps, pr).
type point struct{ e, ps, pr int }

// recorder collects the points at which recordedComm costs are read. The
// mutex keeps it safe should a solver read costs from several goroutines.
type recorder struct {
	mu    sync.Mutex
	reads map[point]bool
}

// recordedComm is edge e's transfer cost f, recording every read in rec.
type recordedComm struct {
	f   model.CommFunc
	e   int
	rec *recorder
}

func (r recordedComm) Eval(ps, pr int) float64 {
	r.rec.mu.Lock()
	r.rec.reads[point{r.e, ps, pr}] = true
	r.rec.mu.Unlock()
	return r.f.Eval(ps, pr)
}

// commGridPoints is the union of dp.CommGrid's points under each of opts.
func commGridPoints(c *model.Chain, pl model.Platform, opts ...dp.Options) map[point]bool {
	grid := map[point]bool{}
	for _, opt := range opts {
		dp.CommGrid(c, pl, opt, func(e int, send, recv []int) {
			for _, ps := range send {
				for _, pr := range recv {
					grid[point{e, ps, pr}] = true
				}
			}
		})
	}
	return grid
}

// FuzzSolversReadOnlyCommGrid checks the claim the canonical cache keys
// rest on: every solver, and the model metrics of every mapping it
// returns, reads each external transfer cost only at dp.CommGrid's points.
// The chain's ECom functions are wrapped to record their reads, and each
// path's reads must lie in the grid of the options it solves under:
// core.Map with DP, with Greedy and with Machine constraints; a Solver's
// Solve, Resolve and Frontier; and tradeoff.Frontier, whose latency sweeps
// run with and without replication. Seeds are the four committed specs at
// P=64 and P=128 under the three option sets; a spec index past them
// draws a random chain of 1-6 tasks on up to 32 processors from seed. Run
// with `go test -fuzz FuzzSolversReadOnlyCommGrid ./internal/core`.
func FuzzSolversReadOnlyCommGrid(f *testing.F) {
	for spec := range specNames {
		for _, procs := range []uint16{64, 128} {
			for opt := range gridOptions {
				f.Add(uint8(spec), procs, uint8(opt), int64(0))
			}
		}
	}
	f.Add(uint8(len(specNames)), uint16(24), uint8(0), int64(7))
	f.Fuzz(func(t *testing.T, spec uint8, procs uint16, optIdx uint8, seed int64) {
		var c *model.Chain
		var pl model.Platform
		if int(spec) < len(specNames) {
			c, pl = loadSpec(t, specNames[spec])
			pl.Procs = 1 + int(procs-1)%128
		} else {
			rng := rand.New(rand.NewSource(seed))
			cfg := testutil.RandChainConfig{MinTasks: 1, MaxTasks: 6, MaxMinProcs: 4, AllowNonReplicable: true}
			c, pl = testutil.RandChain(rng, cfg, 1+int(procs)%32)
		}
		opt := gridOptions[int(optIdx)%len(gridOptions)]

		rec := &recorder{reads: map[point]bool{}}
		rc := &model.Chain{Tasks: c.Tasks, ICom: c.ICom, ECom: make([]model.CommFunc, len(c.ECom))}
		for e, fe := range c.ECom {
			rc.ECom[e] = recordedComm{f: fe, e: e, rec: rec}
		}
		metrics := func(m model.Mapping) {
			if m.Modules != nil {
				m.Throughput()
				m.Latency()
			}
		}
		check := func(what string, grid map[point]bool) {
			t.Helper()
			for p := range rec.reads {
				if !grid[p] {
					t.Fatalf("%s: read edge %d at (ps, pr) = (%d, %d), off dp.CommGrid's points (P=%d, replication off %v, clustering off %v)",
						what, p.e, p.ps, p.pr, pl.Procs, opt.DisableReplication, opt.DisableClustering)
				}
			}
			clear(rec.reads)
		}
		grid := commGridPoints(c, pl, opt)

		req := Request{Chain: rc, Platform: pl,
			DisableReplication: opt.DisableReplication, DisableClustering: opt.DisableClustering}
		for _, algo := range []Algorithm{DP, Greedy} {
			req.Algorithm = algo
			if res, err := Map(req); err == nil {
				metrics(res.Mapping)
			}
			check("core.Map "+algo.String(), grid)
		}
		req.Algorithm = Auto
		req.Machine = &machine.Constraints{Grid: machine.Grid{Rows: 4, Cols: 4}}
		if res, err := Map(req); err == nil {
			metrics(res.Mapping)
		}
		check("core.Map with Machine", grid)

		if s, err := dp.NewSolver(rc, pl, opt); err == nil {
			if m, err := s.Solve(); err == nil {
				metrics(m)
				moved := &model.Chain{Tasks: append([]model.Task(nil), rc.Tasks...), ICom: rc.ICom, ECom: rc.ECom}
				all := make([]int, moved.Len())
				for i := range moved.Tasks {
					moved.Tasks[i].Exec = model.ScaleCost{F: rc.Tasks[i].Exec, K: 1.07}
					all[i] = i
				}
				if m, err := s.Resolve(moved, all); err == nil {
					metrics(m)
				}
				fr, err := s.Frontier()
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range fr {
					metrics(m)
				}
			}
			check("dp.Solver", grid)
		}

		// The latency sweeps cluster whatever opt says, so the singleton
		// option set has nothing of its own to check here. They solve once
		// per frontier point, so they run on at most 64 processors.
		if !opt.DisableClustering {
			tpl := pl
			tpl.Procs = min(pl.Procs, 64)
			pts, _ := tradeoff.Frontier(rc, tpl, tradeoff.Options{DisableReplication: opt.DisableReplication})
			for _, p := range pts {
				metrics(p.Mapping)
			}
			check("tradeoff.Frontier", commGridPoints(c, tpl, dp.Options{DisableReplication: true}, opt))
		}
	})
}

package dp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pipemap/internal/model"
	"pipemap/internal/testutil"
)

// referencePeriods is the throughput recurrence of section 3 written
// plainly (referenceTable): best[B] is the optimal period on B
// processors, +Inf where no mapping fits.
//
// Costs are added in the Solver's order: the module's composed execution
// as model.Chain.ModuleExec sums it (spanExec's order), then
// (in+exec)/r + out/r. The periods therefore agree with the Solver's to
// the last bit, and the tests compare them with ==.
func referencePeriods(c *model.Chain, pl model.Platform, opt Options) []float64 {
	return referenceTable(c, pl, opt, func(v, exec, in, out, r float64) float64 {
		return max(v, (in+exec)/r+out/r)
	})
}

// referenceLatency is the Solver's latency mode under period cap T
// written plainly on the same table: a module closes only when its share
// f/r of the period is at most T, and adds its response f = exec + in +
// out, in model.Mapping.ResponseTimes' order, to the value. It returns
// the least latency on P processors, +Inf when no mapping fits the cap.
func referenceLatency(c *model.Chain, pl model.Platform, opt Options, T float64) float64 {
	return referenceTable(c, pl, opt, func(v, exec, in, out, r float64) float64 {
		if f := exec + in + out; f/r <= T {
			return v + f
		}
		return inf
	})[pl.Procs]
}

// referenceTable is the recurrence of section 3 written plainly: one
// dense table per layer (b, l) over (pt, pcur, peffPrev), peffPrev
// indexed by its value, with no classes, no pruning and no live lists;
// every finite state is expanded into every next module. charge returns
// the value of a state of value v once it closes its module, whose
// response terms are exec, in and out (0 for the first module's in and
// the last module's out) on r instances; +Inf forbids the close. best[B]
// is the least closing value on B processors, +Inf where no mapping
// fits. A state's value never depends on the budget, because a
// transition only adds processors, so one table at P serves every
// B <= P.
func referenceTable(c *model.Chain, pl model.Platform, opt Options, charge func(v, exec, in, out, r float64) float64) []float64 {
	k, P := c.Len(), pl.Procs
	n := P + 1
	// module returns span [a, b)'s minimum raw count, or false when the
	// span cannot be a module.
	module := func(a, b int) (int, bool) {
		if opt.DisableClustering && b != a+1 {
			return 0, false
		}
		m := c.ModuleMinProcs(a, b, pl.MemPerProc)
		return m, m >= 0 && m <= P
	}
	split := func(a, b, p, lo int) model.Replication {
		return model.SplitReplicas(p, lo, c.ModuleReplicable(a, b) && !opt.DisableReplication)
	}
	// val[b][l][(pt*n+pcur)*n+pe]: tasks [0, b) covered, the open module
	// [b-l, b) holding pcur raw processors, pt in total, and pe the
	// previous module's per-instance count (0 when there is none).
	val := make([][][]float64, k+1)
	for b := 1; b <= k; b++ {
		val[b] = make([][]float64, b+1)
		for l := 1; l <= b; l++ {
			val[b][l] = make([]float64, n*n*n)
			fill(val[b][l], inf)
		}
	}
	for l := 1; l <= k; l++ {
		if lo, ok := module(0, l); ok {
			for p := lo; p <= P; p++ {
				val[l][l][(p*n+p)*n] = 0
			}
		}
	}
	best := make([]float64, n)
	fill(best, inf)
	// Layers in ascending b: every transition into layer b comes from a
	// layer with a smaller b.
	for b := 1; b <= k; b++ {
		for l := 1; l <= b; l++ {
			a := b - l
			lo, ok := module(a, b)
			if !ok {
				continue
			}
			exec := c.ModuleExec(a, b)
			for pt := 0; pt <= P; pt++ {
				for pcur := lo; pcur <= pt; pcur++ {
					rp := split(a, b, pcur, lo)
					e, r := rp.ProcsPerInstance, float64(rp.Replicas)
					for pe := 0; pe <= P; pe++ {
						v := val[b][l][(pt*n+pcur)*n+pe]
						if v == inf {
							continue
						}
						in := 0.0
						if a > 0 {
							in = c.ECom[a-1].Eval(pe, e)
						}
						ex := exec.Eval(e)
						if b == k {
							best[pt] = min(best[pt], charge(v, ex, in, 0, r))
							continue
						}
						for l2 := 1; b+l2 <= k; l2++ {
							lo2, ok := module(b, b+l2)
							if !ok {
								continue
							}
							for p2 := lo2; pt+p2 <= P; p2++ {
								e2 := split(b, b+l2, p2, lo2).ProcsPerInstance
								nv := charge(v, ex, in, c.ECom[b-1].Eval(e, e2), r)
								i := ((pt+p2)*n+p2)*n + e
								val[b+l2][l2][i] = min(val[b+l2][l2][i], nv)
							}
						}
					}
				}
			}
		}
	}
	for B := 1; B <= P; B++ {
		best[B] = min(best[B], best[B-1])
	}
	return best
}

// solverPeriod is mapping m's period in the Solver's arithmetic: each
// module's (in+exec)/r + out/r. model.Mapping.Bottleneck adds the same
// terms in another order, so it can differ in the last bit.
func solverPeriod(m model.Mapping) float64 {
	c := m.Chain
	period := 0.0
	for i, mod := range m.Modules {
		in := 0.0
		if i > 0 {
			in = c.ECom[mod.Lo-1].Eval(m.Modules[i-1].Procs, mod.Procs)
		}
		r := float64(mod.Replicas)
		resp := (in + c.ModuleExec(mod.Lo, mod.Hi).Eval(mod.Procs)) / r
		if i+1 < len(m.Modules) {
			resp += c.ECom[mod.Hi-1].Eval(mod.Procs, m.Modules[i+1].Procs) / r
		}
		period = max(period, resp)
	}
	return period
}

// checkAgainstReference solves c on a fresh Solver, checks the answer
// with checkSolution and returns the solver.
func checkAgainstReference(t *testing.T, what string, c *model.Chain, pl model.Platform, opt Options) *Solver {
	t.Helper()
	s, err := NewSolver(c, pl, opt)
	if err != nil {
		t.Fatalf("%s: NewSolver: %v", what, err)
	}
	m, err := s.Solve()
	checkSolution(t, what, s, m, err, c, pl, opt)
	return s
}

// checkSolution asserts that m (with error err), the answer of s's last
// Solve or Resolve on chain c, and s's Frontier at every budget have the
// plain recurrence's period to the last bit, and that the budgets the
// reference cannot map are exactly the ones the Solver leaves empty.
func checkSolution(t *testing.T, what string, s *Solver, m model.Mapping, err error, c *model.Chain, pl model.Platform, opt Options) {
	t.Helper()
	ref := referencePeriods(c, pl, opt)
	if (err != nil) != (ref[pl.Procs] == inf) {
		t.Fatalf("%s: Solve err=%v, reference period %v", what, err, ref[pl.Procs])
	}
	if err != nil {
		return
	}
	if got := solverPeriod(m); got != ref[pl.Procs] {
		t.Fatalf("%s: Solve period %v, reference %v\nmapping: %v", what, got, ref[pl.Procs], &m)
	}
	fr, err := s.Frontier()
	if err != nil {
		t.Fatalf("%s: Frontier: %v", what, err)
	}
	for b, fm := range fr {
		if (fm.Modules == nil) != (ref[b] == inf) {
			t.Fatalf("%s budget %d: frontier %v, reference period %v", what, b, &fm, ref[b])
		}
		if fm.Modules == nil {
			continue
		}
		if err := fm.Validate(model.Platform{Procs: b, MemPerProc: pl.MemPerProc}); err != nil {
			t.Fatalf("%s budget %d: invalid frontier mapping %v: %v", what, b, &fm, err)
		}
		if got := solverPeriod(fm); got != ref[b] {
			t.Fatalf("%s budget %d: frontier period %v, reference %v\nmapping: %v", what, b, got, ref[b], &fm)
		}
	}
}

// referenceOptions are the three option sets the reference checks run
// under: clustering with maximal replication, without replication, and
// the singleton assignment.
var referenceOptions = []Options{{}, {DisableReplication: true}, {DisableClustering: true}}

// FuzzSolverMatchesReference checks the Solver against the plain
// recurrence on random chains of 1–6 tasks on up to 32 processors, past
// the sizes BruteForce can enumerate, under the three option sets: a
// fresh Solve, then a Resolve after some tasks' costs move. Run with
// `go test -fuzz FuzzSolverMatchesReference ./internal/dp`.
func FuzzSolverMatchesReference(f *testing.F) {
	// 65606 fails when dominance also prunes a state whose value is up to
	// 1% below its column's minimum.
	for _, seed := range []int64{0, 1, 2, 7, 42, 1995, 65536, 65606, -1, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		cfg := testutil.RandChainConfig{
			MinTasks: 1, MaxTasks: 6, MaxMinProcs: 1 + rng.Intn(6), AllowNonReplicable: true,
		}
		c, pl := testutil.RandChain(rng, cfg, 1+rng.Intn(32))
		for _, opt := range referenceOptions {
			what := fmt.Sprintf("seed %d %s", seed, optName(opt))
			s := checkAgainstReference(t, what, c, pl, opt)
			if s.SolveCount() == 0 {
				continue // infeasible whatever the costs
			}
			changed := perturbStep(rng, rng.Intn(4), c.Len())
			factors := make([]float64, c.Len())
			fill(factors, 1)
			for _, i := range changed {
				factors[i] = 0.5 + 1.5*rng.Float64()
			}
			pc := scaledChain(c, factors)
			m, err := s.Resolve(pc, changed)
			checkSolution(t, what+" resolved", s, m, err, pc, pl, opt)
		}
	})
}

// FuzzLatencyMatchesReference checks the Solver's latency mode against
// referenceLatency on FuzzSolverMatchesReference's chains and option
// sets, at three period caps: none, the period of a mapping LatencySweep
// returns, and the next float below it, which excludes that period.
// Latencies compare with ==, and each mapping must fit its cap. A sweep
// bounded by that mapping's latency must be the unbounded sweep's prefix
// through its first mapping over the bound. Run with
// `go test -fuzz FuzzLatencyMatchesReference ./internal/dp`.
func FuzzLatencyMatchesReference(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 7, 42, 1995, 65536, -1, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		cfg := testutil.RandChainConfig{
			MinTasks: 1, MaxTasks: 6, MaxMinProcs: 1 + rng.Intn(6), AllowNonReplicable: true,
		}
		c, pl := testutil.RandChain(rng, cfg, 1+rng.Intn(32))
		for _, opt := range referenceOptions {
			what := fmt.Sprintf("seed %d %s", seed, optName(opt))
			sweep, err := LatencySweep(c, pl, opt, inf)
			if err != nil {
				if ref := referenceLatency(c, pl, opt, inf); ref != inf {
					t.Fatalf("%s: LatencySweep: %v, reference latency %v", what, err, ref)
				}
				continue
			}
			picked := sweep[rng.Intn(len(sweep))]
			_, period := picked.Bottleneck()
			bound := picked.Latency()
			want := len(sweep)
			for i := range sweep {
				if sweep[i].Latency() > bound {
					want = i + 1
					break
				}
			}
			cut, err := LatencySweep(c, pl, opt, bound)
			if err != nil || len(cut) != want {
				t.Fatalf("%s bound %v: sweep of %d mappings (err %v), want the first %d of %d", what, bound, len(cut), err, want, len(sweep))
			}
			for i := range cut {
				if !slices.Equal(cut[i].Modules, sweep[i].Modules) {
					t.Fatalf("%s bound %v: mapping %d is %v, unbounded sweep has %v", what, bound, i, &cut[i], &sweep[i])
				}
			}
			s, err := NewSolver(c, pl, opt)
			if err != nil {
				t.Fatalf("%s: NewSolver: %v", what, err)
			}
			for _, T := range []float64{inf, period, math.Nextafter(period, math.Inf(-1))} {
				m, err := s.latencySolve(T)
				ref := referenceLatency(c, pl, opt, T)
				if (err != nil) != (ref == inf) {
					t.Fatalf("%s cap %v: err=%v, reference latency %v", what, T, err, ref)
				}
				if err != nil {
					continue
				}
				if got := m.Latency(); got != ref {
					t.Fatalf("%s cap %v: latency %v, reference %v\nmapping: %v", what, T, got, ref, &m)
				}
				if _, p := m.Bottleneck(); p > T {
					t.Fatalf("%s cap %v: mapping %v has period %v", what, T, &m, p)
				}
				if err := m.Validate(pl); err != nil {
					t.Fatalf("%s cap %v: invalid mapping %v: %v", what, T, &m, err)
				}
			}
		}
	})
}

// optName names an option set of referenceOptions.
func optName(opt Options) string {
	switch {
	case opt.DisableClustering:
		return "no clustering"
	case opt.DisableReplication:
		return "no replication"
	}
	return "default"
}

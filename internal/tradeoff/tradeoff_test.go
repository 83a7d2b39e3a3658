package tradeoff

import (
	"math/rand"
	"testing"

	"pipemap/internal/apps"
	"pipemap/internal/dp"
	"pipemap/internal/model"
	"pipemap/internal/testutil"
)

func fftHist(t *testing.T) (*model.Chain, model.Platform) {
	t.Helper()
	c, err := apps.FFTHist(256, apps.Message)
	if err != nil {
		t.Fatal(err)
	}
	return c, apps.Platform()
}

func TestFrontierIsPareto(t *testing.T) {
	c, pl := fftHist(t)
	front, err := Frontier(c, pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(front) < 2 {
		t.Fatalf("frontier has %d points; replication should create a real trade-off", len(front))
	}
	for i := 1; i < len(front); i++ {
		if front[i].Latency <= front[i-1].Latency {
			t.Errorf("frontier not sorted by latency: %g then %g",
				front[i-1].Latency, front[i].Latency)
		}
		if front[i].Throughput <= front[i-1].Throughput {
			t.Errorf("dominated point survived: thr %g after %g",
				front[i].Throughput, front[i-1].Throughput)
		}
	}
}

func TestFrontierContainsThroughputOptimum(t *testing.T) {
	c, pl := fftHist(t)
	front, err := Frontier(c, pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := dp.MapChain(c, pl, dp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	last := front[len(front)-1]
	if !testutil.AlmostEqual(last.Throughput, opt.Throughput(), 1e-9) {
		t.Errorf("frontier max throughput %g != DP optimum %g", last.Throughput, opt.Throughput())
	}
}

func TestMinLatencyBeatsThroughputOptimumOnLatency(t *testing.T) {
	c, pl := fftHist(t)
	minLat, err := MinLatency(c, pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := dp.MapChain(c, pl, dp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if minLat.Latency() > opt.Latency() {
		t.Errorf("min-latency mapping (%g) worse than throughput optimum (%g)",
			minLat.Latency(), opt.Latency())
	}
	if minLat.Latency() >= opt.Latency()*0.999 {
		t.Logf("note: latencies close: %g vs %g", minLat.Latency(), opt.Latency())
	}
}

func TestBestThroughputUnderLatency(t *testing.T) {
	c, pl := fftHist(t)
	front, err := Frontier(c, pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := front[0], front[len(front)-1]
	// A bound between the extremes must return a mapping within it.
	bound := (lo.Latency + hi.Latency) / 2
	m, err := BestThroughputUnderLatency(c, pl, bound, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Latency() > bound {
		t.Errorf("latency %g exceeds bound %g", m.Latency(), bound)
	}
	if m.Throughput() < lo.Throughput {
		t.Errorf("bounded throughput %g below min-latency point %g", m.Throughput(), lo.Throughput)
	}
	// An impossible bound errors.
	if _, err := BestThroughputUnderLatency(c, pl, lo.Latency/2, Options{}); err == nil {
		t.Error("unsatisfiable latency bound accepted")
	}
}

func TestFrontierRandomChainsNoDominatedPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	cfg := testutil.RandChainConfig{MinTasks: 2, MaxTasks: 3, MaxMinProcs: 2, AllowNonReplicable: true}
	for trial := 0; trial < 10; trial++ {
		c, pl := testutil.RandChain(rng, cfg, 6)
		front, err := Frontier(c, pl, Options{})
		if err != nil {
			continue
		}
		// Spot-check against random mappings: none may dominate a frontier
		// point.
		for _, spans := range model.AllClusterings(c.Len()) {
			mods := make([]model.Module, len(spans))
			used, ok := 0, true
			for i, sp := range spans {
				min := c.ModuleMinProcs(sp.Lo, sp.Hi, pl.MemPerProc)
				if min < 0 || used+min > pl.Procs {
					ok = false
					break
				}
				mods[i] = model.Module{Lo: sp.Lo, Hi: sp.Hi, Procs: min, Replicas: 1}
				used += min
			}
			if !ok {
				continue
			}
			m := model.Mapping{Chain: c, Modules: mods}
			thr, lat := m.Throughput(), m.Latency()
			for _, p := range front {
				if thr > p.Throughput+1e-9 && lat < p.Latency-1e-9 {
					t.Errorf("trial %d: %v dominates frontier point (%g, %g)", trial, &m,
						p.Throughput, p.Latency)
				}
			}
		}
	}
}

func TestFrontierErrors(t *testing.T) {
	if _, err := Frontier(&model.Chain{}, model.Platform{Procs: 4}, Options{}); err == nil {
		t.Error("invalid chain accepted")
	}
	c := &model.Chain{
		Tasks: []model.Task{{Name: "x", Exec: model.PolyExec{C2: 1}, MinProcs: 99}},
	}
	if _, err := Frontier(c, model.Platform{Procs: 4}, Options{}); err == nil {
		t.Error("infeasible chain accepted")
	}
}

func TestFrontierDisableReplicationShrinks(t *testing.T) {
	c, pl := fftHist(t)
	with, err := Frontier(c, pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Frontier(c, pl, Options{DisableReplication: true})
	if err != nil {
		t.Fatal(err)
	}
	if without[len(without)-1].Throughput >= with[len(with)-1].Throughput {
		t.Errorf("disabling replication did not reduce max throughput: %g vs %g",
			without[len(without)-1].Throughput, with[len(with)-1].Throughput)
	}
}

func TestFrontierFirstPointMatchesExactMinLatency(t *testing.T) {
	// For chains whose clusterings are all enumerated exhaustively, the
	// frontier's lowest-latency point must coincide with the exact
	// latency DP.
	c, pl := fftHist(t)
	front, err := Frontier(c, pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := dp.MinLatency(c, pl)
	if err != nil {
		t.Fatal(err)
	}
	if !testutil.AlmostEqual(front[0].Latency, exact.Latency(), 1e-9) {
		t.Errorf("frontier min latency %g != exact DP %g", front[0].Latency, exact.Latency())
	}
}

func TestFrontierLargeClusteringPerturbationPath(t *testing.T) {
	// Force the non-exhaustive branch with a 4-task chain and
	// MaxExhaustiveModules = 2: the frontier must still be valid and
	// contain the throughput optimum within tolerance.
	rng := rand.New(rand.NewSource(211))
	c, pl := testutil.RandChain(rng, testutil.RandChainConfig{
		MinTasks: 4, MaxTasks: 4, MaxMinProcs: 1, AllowNonReplicable: false,
	}, 10)
	front, err := Frontier(c, pl, Options{MaxExhaustiveModules: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(front); i++ {
		if front[i].Throughput <= front[i-1].Throughput {
			t.Errorf("dominated point at %d", i)
		}
	}
	opt, err := dp.MapChain(c, pl, dp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	best := front[len(front)-1].Throughput
	if best < opt.Throughput()*0.9 {
		t.Errorf("perturbation frontier best %g far below optimum %g", best, opt.Throughput())
	}
}

// TestFrontierTiesPreferFewestProcessors pins the tie-break among
// candidates of equal latency and throughput. On the radar chain of
// specs/radar64.json, the 79.323/s, 0.0438 s point is reached by
// replicating the first module 3 times or up to 17 times; the frontier
// reports the 14-processor variant.
func TestFrontierTiesPreferFewestProcessors(t *testing.T) {
	front, err := Frontier(apps.Radar(), model.Platform{Procs: 64, MemPerProc: 0.5}, Options{MinThroughputGain: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	const want = "[pulsecomp+doppler+cfar p=3 r=3] | [track p=5 r=1]"
	for _, p := range front {
		if mods := p.Mapping.Modules; len(mods) == 2 && mods[0].Procs == 3 && mods[1].Procs == 5 {
			if got := p.Mapping.String(); got != want {
				t.Errorf("frontier point %.3f/s, %.4f s is %s, want %s", p.Throughput, p.Latency, got, want)
			}
			return
		}
	}
	t.Errorf("frontier lacks %s", want)
}

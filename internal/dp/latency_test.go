package dp

import (
	"math/rand"
	"testing"

	"pipemap/internal/model"
	"pipemap/internal/testutil"
)

// bruteMinLatency enumerates clusterings and single-instance processor
// assignments to find the true latency minimum on small instances.
func bruteMinLatency(c *model.Chain, pl model.Platform) (model.Mapping, bool) {
	var best model.Mapping
	bestLat := -1.0
	for _, spans := range model.AllClusterings(c.Len()) {
		l := len(spans)
		mins := make([]int, l)
		ok := true
		for i, sp := range spans {
			m := c.ModuleMinProcs(sp.Lo, sp.Hi, pl.MemPerProc)
			if m < 0 || m > pl.Procs {
				ok = false
				break
			}
			mins[i] = m
		}
		if !ok {
			continue
		}
		raw := make([]int, l)
		var rec func(i, used int)
		rec = func(i, used int) {
			if i == l {
				mods := make([]model.Module, l)
				for j, sp := range spans {
					mods[j] = model.Module{Lo: sp.Lo, Hi: sp.Hi, Procs: raw[j], Replicas: 1}
				}
				m := model.Mapping{Chain: c, Modules: mods}
				if lat := m.Latency(); bestLat < 0 || lat < bestLat {
					bestLat, best = lat, m
				}
				return
			}
			for p := mins[i]; used+p <= pl.Procs; p++ {
				raw[i] = p
				rec(i+1, used+p)
			}
		}
		rec(0, 0)
	}
	return best, bestLat >= 0
}

func TestMinLatencyMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	cfg := testutil.RandChainConfig{MinTasks: 2, MaxTasks: 4, MaxMinProcs: 2, AllowNonReplicable: true}
	for trial := 0; trial < 25; trial++ {
		c, pl := testutil.RandChain(rng, cfg, 4+rng.Intn(5))
		m, err := MinLatency(c, pl)
		ref, ok := bruteMinLatency(c, pl)
		if (err == nil) != ok {
			t.Fatalf("trial %d: dp err=%v, brute ok=%v", trial, err, ok)
		}
		if err != nil {
			continue
		}
		if !testutil.AlmostEqual(m.Latency(), ref.Latency(), 1e-9) {
			t.Errorf("trial %d: MinLatency %g != brute %g\n dp: %v\n bf: %v",
				trial, m.Latency(), ref.Latency(), &m, &ref)
		}
		if err := m.Validate(pl); err != nil {
			t.Errorf("trial %d: mapping invalid: %v", trial, err)
		}
	}
}

func TestMinLatencyNeverWorseThanThroughputOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	for trial := 0; trial < 15; trial++ {
		c, pl := testutil.RandChain(rng, testutil.DefaultRandChainConfig(), 8)
		lat, err := MinLatency(c, pl)
		if err != nil {
			continue
		}
		thr, err := MapChain(c, pl, Options{})
		if err != nil {
			continue
		}
		if lat.Latency() > thr.Latency()+1e-9 {
			t.Errorf("trial %d: MinLatency %g worse than throughput optimum's latency %g",
				trial, lat.Latency(), thr.Latency())
		}
	}
}

func TestMinLatencyMergesWhenEdgesExpensive(t *testing.T) {
	// With expensive external edges and cheap internal redistribution, the
	// latency optimum is one big module.
	c := &model.Chain{
		Tasks: []model.Task{
			{Name: "a", Exec: model.PolyExec{C2: 2}},
			{Name: "b", Exec: model.PolyExec{C2: 2}},
			{Name: "c", Exec: model.PolyExec{C2: 2}},
		},
		ICom: []model.CostFunc{model.ZeroExec(), model.ZeroExec()},
		ECom: []model.CommFunc{
			model.PolyComm{C1: 10},
			model.PolyComm{C1: 10},
		},
	}
	m, err := MinLatency(c, model.Platform{Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Modules) != 1 {
		t.Errorf("expected one merged module, got %v", &m)
	}
	// Latency = 6/8 with all 8 processors.
	if !testutil.AlmostEqual(m.Latency(), 6.0/8, 1e-9) {
		t.Errorf("latency %g, want 0.75", m.Latency())
	}
}

func TestMinLatencySingleInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(139))
	c, pl := testutil.RandChain(rng, testutil.DefaultRandChainConfig(), 10)
	m, err := MinLatency(c, pl)
	if err != nil {
		t.Skip("infeasible instance")
	}
	for _, mod := range m.Modules {
		if mod.Replicas != 1 {
			t.Errorf("latency optimum replicated: %v", &m)
		}
	}
}

func TestMinLatencyErrors(t *testing.T) {
	if _, err := MinLatency(&model.Chain{}, model.Platform{Procs: 4}); err == nil {
		t.Error("invalid chain accepted")
	}
	c := &model.Chain{
		Tasks: []model.Task{
			{Name: "a", Exec: model.PolyExec{C2: 1}, Mem: model.Memory{Data: 9000}},
			{Name: "b", Exec: model.PolyExec{C2: 1}, Mem: model.Memory{Data: 9000}},
		},
		ICom: []model.CostFunc{model.ZeroExec()},
		ECom: []model.CommFunc{model.ZeroComm()},
	}
	if _, err := MinLatency(c, model.Platform{Procs: 10, MemPerProc: 1000}); err == nil {
		t.Error("infeasible chain accepted")
	}
}

// TestLatencySweepEndsAtZeroPeriod: when every cost is zero, every mapping
// has period 0, and the next cap, the float below 0, admits none.
func TestLatencySweepEndsAtZeroPeriod(t *testing.T) {
	c := &model.Chain{
		Tasks: []model.Task{{Name: "a", Exec: model.ZeroExec()}, {Name: "b", Exec: model.ZeroExec()}},
		ICom:  []model.CostFunc{model.ZeroExec()},
		ECom:  []model.CommFunc{model.ZeroComm()},
	}
	ms, err := LatencySweep(c, model.Platform{Procs: 4}, Options{}, inf)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].Latency() != 0 {
		t.Errorf("sweep returned %d mappings, want one of latency 0: %v", len(ms), ms)
	}
}

package dp

import (
	"math/rand"
	"testing"

	"pipemap/internal/model"
	"pipemap/internal/testutil"
)

// assignOpt and replicatedOpt restrict MapChain to one task per module:
// the processor assignment of section 3.1 (no replication) and its
// maximal-replication extension of section 3.2.
var (
	assignOpt     = Options{DisableClustering: true, DisableReplication: true}
	replicatedOpt = Options{DisableClustering: true}
)

// balancedChain has two identical tasks and no communication: the optimal
// exclusive assignment splits the processors evenly.
func balancedChain() *model.Chain {
	exec := model.PolyExec{C2: 10}
	return &model.Chain{
		Tasks: []model.Task{
			{Name: "a", Exec: exec, Replicable: false},
			{Name: "b", Exec: exec, Replicable: false},
		},
		ICom: []model.CostFunc{model.ZeroExec()},
		ECom: []model.CommFunc{model.ZeroComm()},
	}
}

func TestAssignBalances(t *testing.T) {
	c := balancedChain()
	m, err := MapChain(c, model.Platform{Procs: 8}, assignOpt)
	if err != nil {
		t.Fatal(err)
	}
	if m.Modules[0].Procs != 4 || m.Modules[1].Procs != 4 {
		t.Errorf("assignment = %v, want 4/4", m)
	}
	if got, want := m.Throughput(), 4.0/10.0; !testutil.AlmostEqual(got, want, 1e-9) {
		t.Errorf("throughput = %g, want %g", got, want)
	}
}

func TestAssignUnevenLoad(t *testing.T) {
	// Task b is 3x heavier; with 8 processors and no comm, optimal gives b
	// more processors (2/6 balances at 5 vs 2; check against brute force).
	c := &model.Chain{
		Tasks: []model.Task{
			{Name: "a", Exec: model.PolyExec{C2: 10}},
			{Name: "b", Exec: model.PolyExec{C2: 30}},
		},
		ICom: []model.CostFunc{model.ZeroExec()},
		ECom: []model.CommFunc{model.ZeroComm()},
	}
	pl := model.Platform{Procs: 8}
	m, err := MapChain(c, pl, assignOpt)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := BruteForce(c, pl, Options{DisableClustering: true, DisableReplication: true})
	if err != nil {
		t.Fatal(err)
	}
	if !testutil.AlmostEqual(m.Throughput(), ref.Throughput(), 1e-9) {
		t.Errorf("assignment throughput %g != brute force %g", m.Throughput(), ref.Throughput())
	}
	if m.Modules[1].Procs <= m.Modules[0].Procs {
		t.Errorf("heavier task got %d procs vs %d", m.Modules[1].Procs, m.Modules[0].Procs)
	}
}

func TestAssignRespectsCommunication(t *testing.T) {
	// With expensive per-processor comm overhead, piling processors onto a
	// task hurts its neighbour's response; DP must still match brute force.
	c := &model.Chain{
		Tasks: []model.Task{
			{Name: "a", Exec: model.PolyExec{C2: 4}},
			{Name: "b", Exec: model.PolyExec{C2: 4}},
			{Name: "c", Exec: model.PolyExec{C2: 4}},
		},
		ICom: []model.CostFunc{model.ZeroExec(), model.ZeroExec()},
		ECom: []model.CommFunc{
			model.PolyComm{C1: 0.1, C4: 0.3, C5: 0.3},
			model.PolyComm{C1: 0.1, C4: 0.3, C5: 0.3},
		},
	}
	pl := model.Platform{Procs: 10}
	m, err := MapChain(c, pl, assignOpt)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := BruteForce(c, pl, Options{DisableClustering: true, DisableReplication: true})
	if err != nil {
		t.Fatal(err)
	}
	if !testutil.AlmostEqual(m.Throughput(), ref.Throughput(), 1e-9) {
		t.Errorf("assignment throughput %g != brute force %g\n dp: %v\n bf: %v",
			m.Throughput(), ref.Throughput(), &m, &ref)
	}
	// Heavy overhead means the best mapping should not use all processors.
	if m.TotalProcs() == pl.Procs {
		t.Logf("note: mapping used all processors: %v", &m)
	}
}

func TestAssignAllowsUnusedProcessors(t *testing.T) {
	// A single task whose exec time grows with p beyond 4 processors: the
	// optimal assignment wastes the rest.
	c := &model.Chain{
		Tasks: []model.Task{
			{Name: "a", Exec: model.PolyExec{C2: 4, C3: 0.3}},
		},
	}
	m, err := MapChain(c, model.Platform{Procs: 16}, assignOpt)
	if err != nil {
		t.Fatal(err)
	}
	// f(p) = 4/p + 0.3p is minimized near sqrt(4/0.3) ~ 3.65 -> p=4 (f=1.3)
	// vs p=3 (f=1.233..): check against direct evaluation.
	bestP, bestF := 0, 1e18
	for p := 1; p <= 16; p++ {
		f := c.Tasks[0].Exec.Eval(p)
		if f < bestF {
			bestP, bestF = p, f
		}
	}
	if m.Modules[0].Procs != bestP {
		t.Errorf("single task got %d procs, want %d", m.Modules[0].Procs, bestP)
	}
}

func TestAssignReplicatedPrefersReplication(t *testing.T) {
	// A perfectly parallel task with heavy per-processor overhead: four
	// instances of 1 processor beat one instance of 4.
	c := &model.Chain{
		Tasks: []model.Task{
			{Name: "a", Exec: model.PolyExec{C1: 1, C2: 1}, Replicable: true},
		},
	}
	pl := model.Platform{Procs: 4}
	m, err := MapChain(c, pl, replicatedOpt)
	if err != nil {
		t.Fatal(err)
	}
	if m.Modules[0].Replicas != 4 || m.Modules[0].Procs != 1 {
		t.Errorf("mapping = %v, want 4 replicas of 1 processor", &m)
	}
	// Throughput = r / f(1) = 4/2 = 2; single instance would give 1/1.25.
	if got := m.Throughput(); !testutil.AlmostEqual(got, 2, 1e-9) {
		t.Errorf("throughput = %g, want 2", got)
	}
}

func TestAssignReplicatedHonorsMemoryMinimum(t *testing.T) {
	c := &model.Chain{
		Tasks: []model.Task{
			{Name: "a", Exec: model.PolyExec{C1: 1, C2: 1}, Replicable: true,
				Mem: model.Memory{Data: 2500}},
		},
	}
	pl := model.Platform{Procs: 8, MemPerProc: 1000}
	m, err := MapChain(c, pl, replicatedOpt)
	if err != nil {
		t.Fatal(err)
	}
	// minProcs = 3, so at most floor(8/3) = 2 instances of 4 processors.
	if m.Modules[0].Replicas != 2 || m.Modules[0].Procs != 4 {
		t.Errorf("mapping = %v, want 2 replicas of 4 processors", &m)
	}
}

func TestAssignErrors(t *testing.T) {
	c := balancedChain()
	if _, err := MapChain(c, model.Platform{Procs: 0}, assignOpt); err == nil {
		t.Error("zero processors accepted")
	}
	c2 := &model.Chain{
		Tasks: []model.Task{
			{Name: "a", Exec: model.PolyExec{C2: 1}, Mem: model.Memory{Data: 5000}},
			{Name: "b", Exec: model.PolyExec{C2: 1}, Mem: model.Memory{Data: 5000}},
		},
		ICom: []model.CostFunc{model.ZeroExec()},
		ECom: []model.CommFunc{model.ZeroComm()},
	}
	// Each task needs 5 processors; only 8 available.
	if _, err := MapChain(c2, model.Platform{Procs: 8, MemPerProc: 1000}, assignOpt); err == nil {
		t.Error("infeasible chain accepted")
	}
	c3 := &model.Chain{
		Tasks: []model.Task{
			{Name: "a", Exec: model.PolyExec{C2: 1}, Mem: model.Memory{Fixed: 2000}},
		},
	}
	if _, err := MapChain(c3, model.Platform{Procs: 8, MemPerProc: 1000}, assignOpt); err == nil {
		t.Error("memory-unfittable task accepted")
	}
	bad := &model.Chain{}
	if _, err := MapChain(bad, model.Platform{Procs: 8}, assignOpt); err == nil {
		t.Error("invalid chain accepted")
	}
}

func TestAssignMatchesBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cfg := testutil.DefaultRandChainConfig()
	for trial := 0; trial < 60; trial++ {
		c, pl := testutil.RandChain(rng, cfg, 6+rng.Intn(6))
		opt := Options{DisableClustering: true, DisableReplication: trial%2 == 0}
		m, err := MapChain(c, pl, opt)
		ref, refErr := BruteForce(c, pl, opt)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("trial %d: dp err=%v, brute err=%v", trial, err, refErr)
		}
		if err != nil {
			continue
		}
		if !testutil.AlmostEqual(m.Throughput(), ref.Throughput(), 1e-9) {
			t.Errorf("trial %d: dp throughput %g != brute %g\n dp: %v\n bf: %v",
				trial, m.Throughput(), ref.Throughput(), &m, &ref)
		}
		if err := m.Validate(pl); err != nil {
			t.Errorf("trial %d: dp mapping invalid: %v", trial, err)
		}
	}
}

func TestAssignMonotoneInProcessors(t *testing.T) {
	// Adding processors never decreases optimal throughput (waste is
	// allowed, so the previous optimum remains feasible).
	rng := rand.New(rand.NewSource(7))
	c, pl := testutil.RandChain(rng, testutil.DefaultRandChainConfig(), 4)
	prev := -1.0
	for P := 4; P <= 20; P++ {
		pl.Procs = P
		m, err := MapChain(c, pl, replicatedOpt)
		if err != nil {
			continue
		}
		thr := m.Throughput()
		if thr < prev-1e-9 {
			t.Errorf("P=%d: throughput %g < previous %g", P, thr, prev)
		}
		if thr > prev {
			prev = thr
		}
	}
}

func TestAssignSingleTask(t *testing.T) {
	c := &model.Chain{
		Tasks: []model.Task{{Name: "only", Exec: model.PolyExec{C2: 6}, Replicable: true}},
	}
	m, err := MapChain(c, model.Platform{Procs: 3}, assignOpt)
	if err != nil {
		t.Fatal(err)
	}
	if m.Modules[0].Procs != 3 || m.Modules[0].Replicas != 1 {
		t.Errorf("mapping = %v, want 3 procs 1 replica", &m)
	}
}

func TestRandomAssignmentsNeverBeatDP(t *testing.T) {
	// Property: no random valid assignment beats the DP's claimed optimum.
	rng := rand.New(rand.NewSource(87))
	cfg := testutil.DefaultRandChainConfig()
	for trial := 0; trial < 15; trial++ {
		c, pl := testutil.RandChain(rng, cfg, 6+rng.Intn(4))
		opt, err := MapChain(c, pl, replicatedOpt)
		if err != nil {
			continue
		}
		best := opt.Throughput()
		k := c.Len()
		mins := make([]int, k)
		feasible := true
		for i := 0; i < k; i++ {
			mins[i] = c.ModuleMinProcs(i, i+1, pl.MemPerProc)
			if mins[i] < 0 {
				feasible = false
			}
		}
		if !feasible {
			continue
		}
		for probe := 0; probe < 200; probe++ {
			mods := make([]model.Module, k)
			used := 0
			ok := true
			for i := 0; i < k; i++ {
				budget := pl.Procs - used
				rest := 0
				for j := i + 1; j < k; j++ {
					rest += mins[j]
				}
				hi := budget - rest
				if hi < mins[i] {
					ok = false
					break
				}
				p := mins[i] + rng.Intn(hi-mins[i]+1)
				r := model.SplitReplicas(p, mins[i], c.Tasks[i].Replicable)
				mods[i] = model.Module{Lo: i, Hi: i + 1,
					Procs: r.ProcsPerInstance, Replicas: r.Replicas}
				used += p
			}
			if !ok {
				continue
			}
			m := model.Mapping{Chain: c, Modules: mods}
			if thr := m.Throughput(); thr > best+1e-9 {
				t.Fatalf("trial %d probe %d: random %v (%g) beats DP (%g)",
					trial, probe, &m, thr, best)
			}
		}
	}
}

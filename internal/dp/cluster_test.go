package dp

import (
	"math/rand"
	"testing"

	"pipemap/internal/model"
	"pipemap/internal/testutil"
)

// mergeFriendlyChain rewards clustering tasks 1 and 2: the edge between
// them is free internally but expensive externally (they share a data
// distribution, like rowffts and hist in the paper).
func mergeFriendlyChain() *model.Chain {
	return &model.Chain{
		Tasks: []model.Task{
			{Name: "col", Exec: model.PolyExec{C2: 10}, Replicable: true},
			{Name: "row", Exec: model.PolyExec{C2: 10}, Replicable: true},
			{Name: "hist", Exec: model.PolyExec{C2: 5, C3: 0.1}, Replicable: true},
		},
		ICom: []model.CostFunc{
			model.PolyExec{C1: 0.3, C2: 1}, // transpose: costly either way
			model.ZeroExec(),               // same distribution: free inside
		},
		ECom: []model.CommFunc{
			model.PolyComm{C1: 0.3, C2: 0.5, C3: 0.5},
			model.PolyComm{C1: 0.5, C2: 2, C3: 2}, // expensive across modules
		},
	}
}

func TestMapChainClusters(t *testing.T) {
	c := mergeFriendlyChain()
	pl := model.Platform{Procs: 12}
	m, err := MapChain(c, pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(pl); err != nil {
		t.Fatalf("mapping invalid: %v", err)
	}
	// row and hist should share a module.
	found := false
	for _, mod := range m.Modules {
		if mod.Lo <= 1 && mod.Hi >= 3 {
			found = true
		}
	}
	if !found {
		t.Errorf("row+hist not clustered: %v", &m)
	}
}

func TestMapChainMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	cfg := testutil.DefaultRandChainConfig()
	for trial := 0; trial < 40; trial++ {
		c, pl := testutil.RandChain(rng, cfg, 5+rng.Intn(6))
		opt := Options{DisableReplication: trial%3 == 0}
		m, err := MapChain(c, pl, opt)
		ref, refErr := MapExhaustive(c, pl, opt)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("trial %d: MapChain err=%v, MapExhaustive err=%v", trial, err, refErr)
		}
		if err != nil {
			continue
		}
		if !testutil.AlmostEqual(m.Throughput(), ref.Throughput(), 1e-9) {
			t.Errorf("trial %d: MapChain %g != MapExhaustive %g\n dp: %v\n ex: %v",
				trial, m.Throughput(), ref.Throughput(), &m, &ref)
		}
		if err := m.Validate(pl); err != nil {
			t.Errorf("trial %d: mapping invalid: %v (%v)", trial, err, &m)
		}
	}
}

func TestMapChainMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	cfg := testutil.RandChainConfig{MinTasks: 2, MaxTasks: 3, MaxMinProcs: 2, AllowNonReplicable: true}
	for trial := 0; trial < 25; trial++ {
		c, pl := testutil.RandChain(rng, cfg, 4+rng.Intn(4))
		m, err := MapChain(c, pl, Options{})
		ref, refErr := BruteForce(c, pl, Options{})
		if (err == nil) != (refErr == nil) {
			t.Fatalf("trial %d: MapChain err=%v, brute err=%v", trial, err, refErr)
		}
		if err != nil {
			continue
		}
		if !testutil.AlmostEqual(m.Throughput(), ref.Throughput(), 1e-9) {
			t.Errorf("trial %d: MapChain %g != brute %g\n dp: %v\n bf: %v",
				trial, m.Throughput(), ref.Throughput(), &m, &ref)
		}
	}
}

func TestMapChainDisableClustering(t *testing.T) {
	c := mergeFriendlyChain()
	pl := model.Platform{Procs: 12}
	m, err := MapChain(c, pl, Options{DisableClustering: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Modules) != 3 {
		t.Errorf("clustering disabled but got %d modules", len(m.Modules))
	}
}

func TestMapChainThroughputAtLeastAssignment(t *testing.T) {
	// Clustering strictly enlarges the search space, so MapChain can never
	// lose to the singleton-clustering assignment DP under the same
	// replication rule. (Note the comparison must hold the replication rule
	// fixed: the paper's maximal-replication transformation of section 3.2
	// is an assumption, and with adversarial communication functions forced
	// replication can lose to no replication.)
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		c, pl := testutil.RandChain(rng, testutil.DefaultRandChainConfig(), 8)
		for _, disableRep := range []bool{false, true} {
			full, err := MapChain(c, pl, Options{DisableReplication: disableRep})
			if err != nil {
				continue
			}
			plain, err := MapChain(c, pl, Options{DisableClustering: true, DisableReplication: disableRep})
			if err != nil {
				continue
			}
			if full.Throughput() < plain.Throughput()-1e-9 {
				t.Errorf("trial %d (disableRep=%v): full mapping %g worse than plain assignment %g",
					trial, disableRep, full.Throughput(), plain.Throughput())
			}
		}
	}
}

func TestMapChainBeatsDataParallelWhenOverheadHigh(t *testing.T) {
	// With strong per-processor overhead in one task, the mixed task/data
	// parallel mapping should beat pure data parallelism (the paper's core
	// observation).
	c := mergeFriendlyChain()
	pl := model.Platform{Procs: 32}
	m, err := MapChain(c, pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dpl := model.DataParallel(c, pl)
	if m.Throughput() <= dpl.Throughput() {
		t.Errorf("optimal %g not better than data parallel %g", m.Throughput(), dpl.Throughput())
	}
}

func TestAssignClusteredInvalidSpans(t *testing.T) {
	c := mergeFriendlyChain()
	pl := model.Platform{Procs: 8}
	if _, err := AssignClustered(c, pl, []model.Span{{Lo: 0, Hi: 2}}, Options{}); err == nil {
		t.Error("incomplete clustering accepted")
	}
}

func TestAssignClusteredTranslatesSpans(t *testing.T) {
	c := mergeFriendlyChain()
	pl := model.Platform{Procs: 8}
	spans := []model.Span{{Lo: 0, Hi: 1}, {Lo: 1, Hi: 3}}
	m, err := AssignClustered(c, pl, spans, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Modules) != 2 || m.Modules[1].Lo != 1 || m.Modules[1].Hi != 3 {
		t.Errorf("spans not preserved: %v", m.Modules)
	}
	if err := m.Validate(pl); err != nil {
		t.Errorf("mapping invalid: %v", err)
	}
}

func TestMapChainInfeasible(t *testing.T) {
	c := &model.Chain{
		Tasks: []model.Task{
			{Name: "a", Exec: model.PolyExec{C2: 1}, Mem: model.Memory{Data: 9000}},
			{Name: "b", Exec: model.PolyExec{C2: 1}, Mem: model.Memory{Data: 9000}},
		},
		ICom: []model.CostFunc{model.ZeroExec()},
		ECom: []model.CommFunc{model.ZeroComm()},
	}
	// Each task alone needs 9 processors; merged they need 18. Only 10
	// available, so no clustering fits both.
	if _, err := MapChain(c, model.Platform{Procs: 10, MemPerProc: 1000}, Options{}); err == nil {
		t.Error("infeasible chain accepted")
	}
}

func TestMapChainSingleTask(t *testing.T) {
	c := &model.Chain{
		Tasks: []model.Task{{Name: "solo", Exec: model.PolyExec{C1: 0.5, C2: 4}, Replicable: true}},
	}
	pl := model.Platform{Procs: 6}
	m, err := MapChain(c, pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := BruteForce(c, pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !testutil.AlmostEqual(m.Throughput(), ref.Throughput(), 1e-9) {
		t.Errorf("single task: MapChain %g != brute %g", m.Throughput(), ref.Throughput())
	}
}

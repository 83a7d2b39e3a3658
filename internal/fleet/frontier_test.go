package fleet

import (
	"math/rand"
	"os"
	"reflect"
	"testing"

	"pipemap/internal/adapt"
	"pipemap/internal/core"
	"pipemap/internal/model"
)

// scaleChain returns c with every task's execution cost scaled by k.
func scaleChain(c *model.Chain, k float64) *model.Chain {
	tasks := append([]model.Task(nil), c.Tasks...)
	for i := range tasks {
		tasks[i].Exec = model.ScaleCost{F: c.Tasks[i].Exec, K: k}
	}
	return &model.Chain{Tasks: tasks, ICom: c.ICom, ECom: c.ECom}
}

// TestChurnScriptSolvesOncePerCostState drives one spec through a churn
// script on a shared pool — six admissions at three cost scales, then
// fail, depart, re-admit, restore, depart, fail, restore — and checks
// that the fleet solves once per distinct cost state, however often the
// allocations move: every re-placement is read from the per-budget
// frontier of the spec solved at its 64-processor cap. After every
// mutation each placement must equal a fresh adapt.Resolve at its
// allocation.
func TestChurnScriptSolvesOncePerCostState(t *testing.T) {
	const (
		pool     = 256
		maxProcs = 64
	)
	fh, err := os.Open("../../specs/radar64.json")
	if err != nil {
		t.Fatal(err)
	}
	base, pl, err := core.ParseChainSpec(fh)
	fh.Close()
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(Config{Pool: model.Platform{Procs: pool, MemPerProc: pl.MemPerProc}})
	if err != nil {
		t.Fatal(err)
	}

	chains := map[int64]*model.Chain{}
	var ids []int64
	admit := func(scale float64) {
		t.Helper()
		c := scaleChain(base, scale)
		p, err := f.Admit(Spec{Tenant: "radar", Chain: c, MaxProcs: maxProcs})
		if err != nil {
			t.Fatalf("admit at scale %v: %v", scale, err)
		}
		chains[p.ID] = c
		ids = append(ids, p.ID)
	}
	check := func(step string) {
		t.Helper()
		ps := f.Placements()
		if len(ps) == 0 {
			t.Fatalf("%s: no pipelines placed", step)
		}
		for _, p := range ps {
			want, _, err := adapt.Resolve(chains[p.ID], model.Platform{Procs: p.Alloc, MemPerProc: pl.MemPerProc}, adapt.ResolveOptions{})
			if err != nil {
				t.Fatalf("%s: fresh solve of pipeline %d at %d processors: %v", step, p.ID, p.Alloc, err)
			}
			if !reflect.DeepEqual(p.Mapping.Modules, want.Mapping.Modules) ||
				p.Throughput != want.Throughput || p.Latency != want.Latency {
				t.Fatalf("%s: pipeline %d at %d processors placed %v (%v/s, %v s), fresh solve %v (%v/s, %v s)",
					step, p.ID, p.Alloc, &p.Mapping, p.Throughput, p.Latency, &want.Mapping, want.Throughput, want.Latency)
			}
		}
		if err := checkAccounting(f.Stats()); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}

	scales := []float64{1, 1.05, 1.1}
	for i := 0; i < 6; i++ {
		admit(scales[i/2])
		check("admission")
	}
	mustOK := func(step string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		check(step)
	}
	mustOK("fail 32", f.FailProcs(32))
	mustOK("depart", f.Depart(ids[1]))
	admit(scales[1])
	check("re-admission")
	mustOK("restore 32", f.RestoreProcs(32))
	mustOK("depart", f.Depart(ids[0]))
	mustOK("fail 16", f.FailProcs(16))
	mustOK("restore 16", f.RestoreProcs(16))

	cs := f.Cache().Stats()
	if cs.Families != 1 {
		t.Errorf("families = %d, want 1 (one spec structure at its cap)", cs.Families)
	}
	if got := cs.FullSolves + cs.IncrementalSolves; got != 3 {
		t.Errorf("DP solves = %d (%d full, %d incremental), want 3: one per cost scale",
			got, cs.FullSolves, cs.IncrementalSolves)
	}
}

// placeFourSpecs admits four 7-task specs, two per distinct chain, on a
// pool under opt, then fails an eighth of the pool. After every step each
// placement must equal a fresh adapt.Resolve at its allocation. frontier
// is whether the specs are served by the frontier of their cap solve.
func placeFourSpecs(t *testing.T, pool int, opt adapt.ResolveOptions, frontier bool) *Fleet {
	t.Helper()
	f, err := New(Config{Pool: model.Platform{Procs: pool}, Solve: opt})
	if err != nil {
		t.Fatal(err)
	}
	capPl := model.Platform{Procs: pool}
	chains := map[int64]*model.Chain{}
	check := func(step string) {
		t.Helper()
		for _, p := range f.Placements() {
			want, _, err := adapt.Resolve(chains[p.ID], model.Platform{Procs: p.Alloc}, opt)
			if err != nil {
				t.Fatalf("%s: fresh solve of pipeline %d: %v", step, p.ID, err)
			}
			if !reflect.DeepEqual(p.Mapping.Modules, want.Mapping.Modules) || p.Throughput != want.Throughput {
				t.Fatalf("%s: pipeline %d at %d processors placed %v, fresh solve %v",
					step, p.ID, p.Alloc, &p.Mapping, &want.Mapping)
			}
		}
	}
	for i := 0; i < 4; i++ {
		c := genChain(rand.New(rand.NewSource(int64(i%2))), 7)
		if got := adapt.HasFrontier(c, capPl, opt); got != frontier {
			t.Fatalf("spec %d: HasFrontier = %v at cap %d, want %v", i, got, pool, frontier)
		}
		p, err := f.Admit(Spec{Tenant: "t", Chain: c})
		if err != nil {
			t.Fatal(err)
		}
		chains[p.ID] = c
		check("admission")
	}
	if err := f.FailProcs(pool / 8); err != nil {
		t.Fatal(err)
	}
	check("failure")
	return f
}

// TestSpecsWithoutFrontierSolvePerAllocation covers the specs the cap's
// frontier cannot serve, which keep a solve per allocation: uncapped
// 7-task specs on 96 processors route to greedy at the cap but to DP at
// their smaller shared allocations.
func TestSpecsWithoutFrontierSolvePerAllocation(t *testing.T) {
	t.Run("greedy at the cap", func(t *testing.T) {
		placeFourSpecs(t, 96, adapt.ResolveOptions{}, false)
	})
}

// TestClusteringOffSpecsPlaceFromFrontier: with clustering off, a
// DP-routed spec is placed from the frontier of its cap solve like any
// other. Every placement keeps one module per task, and each distinct
// spec solves once however often its allocation moves.
func TestClusteringOffSpecsPlaceFromFrontier(t *testing.T) {
	f := placeFourSpecs(t, 32, adapt.ResolveOptions{DisableClustering: true}, true)
	for _, p := range f.Placements() {
		if len(p.Mapping.Modules) != 7 {
			t.Errorf("pipeline %d placed %v with clustering off", p.ID, &p.Mapping)
		}
	}
	if cs := f.Cache().Stats(); cs.FullSolves+cs.IncrementalSolves != 2 {
		t.Errorf("DP solves = %d full, %d incremental; want 2, one per distinct spec",
			cs.FullSolves, cs.IncrementalSolves)
	}
}

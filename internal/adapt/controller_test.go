package adapt

import (
	"math"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"pipemap/internal/core"
	"pipemap/internal/model"
	"pipemap/internal/obs/live"
)

// twoStage returns a two-task non-replicable chain with free external
// communication and an internal redistribution of a whole second, which
// no clustering of the two tasks can pay back: the only competitive
// mapping freedom is the processor split, so solver decisions are easy to
// predict in tests.
func twoStage(aC2, bC2 float64) (*model.Chain, model.Platform) {
	chain := &model.Chain{
		Tasks: []model.Task{
			{Name: "a", Exec: model.PolyExec{C2: aC2}},
			{Name: "b", Exec: model.PolyExec{C2: bC2}},
		},
		ICom: []model.CostFunc{model.PolyExec{C1: 1}},
		ECom: []model.CommFunc{model.ZeroComm()},
	}
	return chain, model.Platform{Procs: 8, MemPerProc: 1}
}

// mapStr renders a mapping value (String has a pointer receiver).
func mapStr(m model.Mapping) string { return (&m).String() }

func mustMapping(t *testing.T, chain *model.Chain, pl model.Platform, modules []model.Module) model.Mapping {
	t.Helper()
	m := model.Mapping{Chain: chain, Modules: modules}
	if err := m.Validate(pl); err != nil {
		t.Fatalf("test mapping invalid: %v", err)
	}
	return m
}

func TestControllerHoldsBelowThreshold(t *testing.T) {
	chain, pl := twoStage(8, 1)
	// Suboptimal split: optimal is [a p=7][b p=1] (period 8/7), this one's
	// period is 8/6, a ~16.7% candidate gain — below a 50% threshold.
	initial := mustMapping(t, chain, pl, []model.Module{
		{Lo: 0, Hi: 1, Procs: 6, Replicas: 1},
		{Lo: 1, Hi: 2, Procs: 2, Replicas: 1},
	})
	c, err := NewController(Config{
		Chain: chain, Platform: pl, Initial: initial,
		Threshold: 0.50,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := c.Step(Observation{Throughput: 0.75})
	if d.Action != ActionHold {
		t.Fatalf("action %q, want hold: %s", d.Action, d.Reason)
	}
	if !strings.Contains(d.Reason, "below") {
		t.Errorf("hold reason %q does not mention the threshold", d.Reason)
	}
	if d.PredictedGain <= 0 || d.PredictedGain >= 0.5 {
		t.Errorf("predicted gain %g outside (0, 0.5)", d.PredictedGain)
	}
	if c.Generation() != 0 || mapStr(c.Mapping()) != initial.String() {
		t.Errorf("hold decision changed the mapping: gen %d, %s", c.Generation(), mapStr(c.Mapping()))
	}
}

func TestControllerMigratesAboveThreshold(t *testing.T) {
	chain, pl := twoStage(8, 1)
	initial := mustMapping(t, chain, pl, []model.Module{
		{Lo: 0, Hi: 1, Procs: 6, Replicas: 1},
		{Lo: 1, Hi: 2, Procs: 2, Replicas: 1},
	})
	c, err := NewController(Config{
		Chain: chain, Platform: pl, Initial: initial,
		Threshold: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := c.Step(Observation{Throughput: 0.75})
	if d.Action != ActionMigrate {
		t.Fatalf("action %q, want migrate: %s", d.Action, d.Reason)
	}
	if c.Generation() != 1 {
		t.Errorf("generation %d after migration, want 1", c.Generation())
	}
	if got := mapStr(c.Mapping()); got != d.Candidate {
		t.Errorf("installed mapping %s, decision candidate %s", got, d.Candidate)
	}
	if c.Mapping().Modules[0].Procs != 7 {
		t.Errorf("migrated to %s, want [a p=7][b p=1]", mapStr(c.Mapping()))
	}
}

func TestControllerRollsBackOnRegression(t *testing.T) {
	chain, pl := twoStage(8, 1)
	initial := mustMapping(t, chain, pl, []model.Module{
		{Lo: 0, Hi: 1, Procs: 6, Replicas: 1},
		{Lo: 1, Hi: 2, Procs: 2, Replicas: 1},
	})
	c, err := NewController(Config{
		Chain: chain, Platform: pl, Initial: initial,
		Threshold: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := c.Step(Observation{Throughput: 0.75})
	if d.Action != ActionMigrate {
		t.Fatalf("setup migration did not happen: %s", d.Reason)
	}
	migrated := mapStr(c.Mapping())

	// The first post-migration segment regresses 60% — far past the 20%
	// default tolerance — so the controller must revert.
	d = c.Step(Observation{Throughput: 0.30})
	if d.Action != ActionRollback {
		t.Fatalf("action %q, want rollback: %s", d.Action, d.Reason)
	}
	if got := mapStr(c.Mapping()); got != initial.String() {
		t.Errorf("rolled back to %s, want the pre-migration mapping %s", got, initial.String())
	}
	st := c.Status()
	if st.Rollbacks != 1 || st.Generation != 2 {
		t.Errorf("rollbacks=%d generation=%d, want 1 and 2", st.Rollbacks, st.Generation)
	}
	if st.ObservedGain >= 0 {
		t.Errorf("observed gain %g after a regression, want negative", st.ObservedGain)
	}

	// During cooldown the controller holds even though the vetoed candidate
	// still looks better on paper.
	d = c.Step(Observation{Throughput: 0.75})
	if d.Action != ActionHold || !strings.Contains(d.Reason, "cooldown") {
		t.Fatalf("during cooldown got %q (%s), want a cooldown hold", d.Action, d.Reason)
	}
	for i := 0; i < 2; i++ {
		d = c.Step(Observation{Throughput: 0.75})
	}
	// Cooldown over: the candidate re-emerges but stays vetoed.
	d = c.Step(Observation{Throughput: 0.75})
	if d.Action != ActionHold || !strings.Contains(d.Reason, "vetoed") {
		t.Fatalf("after cooldown got %q (%s), want a vetoed hold", d.Action, d.Reason)
	}
	if d.Candidate != migrated {
		t.Errorf("vetoed candidate %s, want %s", d.Candidate, migrated)
	}
}

// healthFor fabricates a health model for the mapping: every stage fully
// live except the listed per-stage death counts, with latency windows left
// empty so refitting stays gated and the pure remap path is isolated.
func healthFor(m model.Mapping, deaths map[int]int64) live.Health {
	h := live.Health{Stages: make([]live.StageHealth, len(m.Modules))}
	for i, mod := range m.Modules {
		liveN := mod.Replicas - int(deaths[i])
		if liveN < 1 {
			liveN = 1
		}
		h.Stages[i] = live.StageHealth{
			Stage: i, Replicas: mod.Replicas, Live: liveN, Deaths: deaths[i],
		}
	}
	return h
}

// TestControllerRemapAgreementAcrossDeaths kills one instance per decision
// cycle across mapping generations and checks that the controller's
// surviving processor count and re-solve agree exactly with core.Remap fed
// the same cumulative loss — the degraded-mode ground truth. Divergence
// here is the drift bug this test exists to catch.
func TestControllerRemapAgreementAcrossDeaths(t *testing.T) {
	f, err := os.Open("../../specs/threestage.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	chain, pl, err := core.ParseChainSpec(f)
	if err != nil {
		t.Fatal(err)
	}
	req := core.Request{Chain: chain, Platform: pl, Algorithm: core.DP}
	res, err := core.Map(req)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewController(Config{
		Chain: chain, Platform: pl, Initial: res.Mapping, Threshold: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}

	lost := 0
	deaths := map[int]int64{}
	lastGen := 0
	for round := 0; round < 3; round++ {
		cur := c.Mapping()
		if c.Generation() != lastGen {
			// A migration rebuilt the data plane: the fabricated monitor
			// starts fresh, like the runtime's per-generation monitors.
			deaths = map[int]int64{}
			lastGen = c.Generation()
		}
		// Kill one more instance of the first stage that still has a spare
		// replica under the current mapping.
		stage := -1
		for i, mod := range cur.Modules {
			if int64(mod.Replicas-1) > deaths[i] {
				stage = i
				break
			}
		}
		if stage < 0 {
			t.Fatalf("round %d: no stage with a spare replica in %s", round, cur.String())
		}
		deaths[stage]++
		lost += cur.Modules[stage].Procs

		d := c.Step(Observation{Health: healthFor(cur, deaths), Throughput: 1})

		if got := c.Platform().Procs; got != pl.Procs-lost {
			t.Fatalf("round %d: surviving procs %d, want %d (%d lost)", round, got, pl.Procs-lost, lost)
		}
		want, err := core.Remap(req, lost)
		if err != nil {
			t.Fatalf("round %d: remap: %v", round, err)
		}
		if d.Candidate != want.Mapping.String() {
			t.Fatalf("round %d: controller candidate %s, core.Remap says %s",
				round, d.Candidate, want.Mapping.String())
		}
	}
	if c.Status().LostProcs != lost {
		t.Errorf("status reports %d lost procs, want %d", c.Status().LostProcs, lost)
	}
}

// loadSpec parses the committed spec specs/name.json.
func loadSpec(t *testing.T, name string) (*model.Chain, model.Platform) {
	t.Helper()
	f, err := os.Open("../../specs/" + name + ".json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	chain, pl, err := core.ParseChainSpec(f)
	if err != nil {
		t.Fatal(err)
	}
	return chain, pl
}

// TestControllerDeathReadsFrontier: the controller keys its re-solve at
// its nominal platform and asks for the surviving budget, so an instance
// death moves neither key. The death tick reads the surviving budget from
// the retained nominal table's per-budget frontier, with no invalidation
// and no full solve, and its candidate is core.Remap's; the next tick at
// that budget is a memo hit.
func TestControllerDeathReadsFrontier(t *testing.T) {
	for _, name := range []string{"threestage", "ffthist256", "radar64", "stereo128"} {
		chain, pl := loadSpec(t, name)
		req := core.Request{Chain: chain, Platform: pl}
		res, err := core.Map(req)
		if err != nil {
			t.Fatal(err)
		}
		// A threshold no candidate clears keeps generation 0 serving.
		c, err := NewController(Config{Chain: chain, Platform: pl, Initial: res.Mapping, Threshold: 100})
		if err != nil {
			t.Fatal(err)
		}
		stage := -1
		for i, mod := range res.Mapping.Modules {
			if mod.Replicas > 1 {
				stage = i
				break
			}
		}
		if stage < 0 {
			t.Fatalf("%s: no replicated stage in %s", name, res.Mapping.String())
		}
		c.Step(Observation{Health: healthFor(res.Mapping, nil), Throughput: 1})
		before := *c.Status().Memo

		dead := healthFor(res.Mapping, map[int]int64{stage: 1})
		d := c.Step(Observation{Health: dead, Throughput: 1})
		want, err := core.Remap(req, res.Mapping.Modules[stage].Procs)
		if err != nil {
			t.Fatal(err)
		}
		if d.Candidate != want.Mapping.String() || d.CandidatePredicted != want.Throughput {
			t.Errorf("%s: death tick candidate %s (%v/s), core.Remap %s (%v/s)",
				name, d.Candidate, d.CandidatePredicted, want.Mapping.String(), want.Throughput)
		}
		after := *c.Status().Memo
		if after.Invalidations != 0 || after.FullSolves != before.FullSolves {
			t.Errorf("%s: death tick took path %q with %d invalidations and %d full solves (was %d), want a frontier read",
				name, d.SolvePath, after.Invalidations, after.FullSolves, before.FullSolves)
		}
		if d = c.Step(Observation{Health: dead, Throughput: 1}); d.SolvePath != PathMemo || d.Candidate != want.Mapping.String() {
			t.Errorf("%s: tick after the death took path %q to %s, want a memo hit on %s",
				name, d.SolvePath, d.Candidate, want.Mapping.String())
		}
	}
}

// TestControllerDeathAccountingClampedPerGeneration re-reports the same
// death count across segments of one generation (as re-built segment runs
// do) and checks the loss is not double counted.
func TestControllerDeathAccountingClampedPerGeneration(t *testing.T) {
	f, err := os.Open("../../specs/threestage.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	chain, pl, err := core.ParseChainSpec(f)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Map(core.Request{Chain: chain, Platform: pl, Algorithm: core.DP})
	if err != nil {
		t.Fatal(err)
	}
	// A sky-high threshold pins the controller on generation 0 so the same
	// health is ingested repeatedly.
	c, err := NewController(Config{
		Chain: chain, Platform: pl, Initial: res.Mapping, Threshold: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	stage := -1
	for i, mod := range res.Mapping.Modules {
		if mod.Replicas > 1 {
			stage = i
			break
		}
	}
	if stage < 0 {
		t.Fatalf("no replicated stage in %s", res.Mapping.String())
	}
	want := res.Mapping.Modules[stage].Procs
	for seg := 0; seg < 4; seg++ {
		c.Step(Observation{Health: healthFor(res.Mapping, map[int]int64{stage: 1}), Throughput: 1})
		if got := c.Status().LostProcs; got != want {
			t.Fatalf("segment %d: lost %d procs, want %d (single death double counted)", seg, got, want)
		}
	}
	// Deaths beyond Replicas-1 are executor re-kill artifacts, not new
	// processor loss.
	huge := int64(res.Mapping.Modules[stage].Replicas + 3)
	c.Step(Observation{Health: healthFor(res.Mapping, map[int]int64{stage: huge}), Throughput: 1})
	maxLoss := (res.Mapping.Modules[stage].Replicas - 1) * res.Mapping.Modules[stage].Procs
	if got := c.Status().LostProcs; got != maxLoss {
		t.Fatalf("lost %d procs after %d reported deaths, want clamp at %d", got, huge, maxLoss)
	}
}

// TestControllerHammerConcurrentReaders drives Step while Status, Mapping,
// Platform and Generation are read concurrently; run with -race.
func TestControllerHammerConcurrentReaders(t *testing.T) {
	chain, pl := twoStage(8, 1)
	initial := mustMapping(t, chain, pl, []model.Module{
		{Lo: 0, Hi: 1, Procs: 6, Replicas: 1},
		{Lo: 1, Hi: 2, Procs: 2, Replicas: 1},
	})
	c, err := NewController(Config{
		Chain: chain, Platform: pl, Initial: initial,
		Threshold: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				st := c.Status()
				if st.SurvivingProcs < 1 {
					t.Error("surviving procs below 1")
					return
				}
				_ = mapStr(c.Mapping())
				_ = c.Platform()
				_ = c.Generation()
			}
		}()
	}
	// Alternate strong and weak throughput so migrations, evaluations and
	// rollbacks all happen under the readers.
	for i := 0; i < 50; i++ {
		tput := 0.75
		if i%3 == 1 {
			tput = 0.2
		}
		c.Step(Observation{Throughput: tput})
	}
	close(done)
	wg.Wait()
}

func TestControllerRecordsIngestLoad(t *testing.T) {
	chain, pl := twoStage(8, 1)
	initial := mustMapping(t, chain, pl, []model.Module{
		{Lo: 0, Hi: 1, Procs: 6, Replicas: 1},
		{Lo: 1, Hi: 2, Procs: 2, Replicas: 1},
	})
	c, err := NewController(Config{
		Chain: chain, Platform: pl, Initial: initial,
		Threshold: 0.50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Status().Ingest != nil {
		t.Fatal("ingest load set before any observation carried one")
	}
	c.Step(Observation{Throughput: 0.75, Ingest: &IngestLoad{
		QueueDepth: 7, InFlight: 2, AdmitRate: 10, ShedRate: 3,
	}})
	got := c.Status().Ingest
	if got == nil || got.QueueDepth != 7 || got.ShedRate != 3 {
		t.Fatalf("status ingest = %+v, want the observed load", got)
	}
	// An observation without ingest evidence keeps the last known load.
	c.Step(Observation{Throughput: 0.75})
	if got := c.Status().Ingest; got == nil || got.QueueDepth != 7 {
		t.Fatalf("status ingest after plain step = %+v, want retained load", got)
	}
}

// TestControllerRoutesLikeCoreMap: the controller's re-solve picks DP or
// greedy by core's Auto rule, the choice core.Map makes, and reaches every
// DP-routed spec through the cache's DP paths. With no latency evidence
// the beliefs do not move, so the candidate is core.Map's own mapping.
func TestControllerRoutesLikeCoreMap(t *testing.T) {
	for _, name := range []string{"threestage", "ffthist256", "radar64", "stereo128"} {
		f, err := os.Open("../../specs/" + name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		chain, pl, err := core.ParseChainSpec(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Map(core.Request{Chain: chain, Platform: pl})
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewController(Config{Chain: chain, Platform: pl, Initial: res.Mapping})
		if err != nil {
			t.Fatal(err)
		}
		d := c.Step(Observation{Throughput: res.Throughput})
		if d.Algorithm != res.Algorithm.String() {
			t.Errorf("%s: controller re-solved with %q, core.Map's Auto picks %q", name, d.Algorithm, res.Algorithm)
		}
		if d.Candidate != res.Mapping.String() {
			t.Errorf("%s: controller candidate %s, core.Map %s", name, d.Candidate, res.Mapping.String())
		}
		if res.Algorithm == core.DP && d.SolvePath != PathFullDP && d.SolvePath != PathIncremental && d.SolvePath != PathMemo {
			t.Errorf("%s: DP-routed re-solve took path %q", name, d.SolvePath)
		}
	}
}

// refitController returns a controller on cacheChain mapped as modules,
// with a one-observation fit window, so each tick's refit ratio is the
// stage's observed over predicted response, and a threshold no candidate
// clears, so the mapping never moves. observe fabricates the health of
// one tick: stage i responds ratios[i] times slower than predicted.
func refitController(t *testing.T, modules []model.Module) (*Controller, func(ratios ...float64) Observation) {
	t.Helper()
	chain, pl := cacheChain(nil)
	initial := mustMapping(t, chain, pl, modules)
	c, err := NewController(Config{
		Chain: chain, Platform: pl, Initial: initial,
		Threshold: 100, FitWindow: 1, FitCycles: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	pred := initial.ResponseTimes()
	observe := func(ratios ...float64) Observation {
		h := live.Health{Stages: make([]live.StageHealth, len(modules))}
		for i, mod := range modules {
			h.Stages[i] = live.StageHealth{
				Stage: i, Replicas: mod.Replicas, Live: mod.Replicas,
				Latency: live.WindowStat{Count: minStageSamples, Mean: pred[i] * ratios[i]},
			}
		}
		return Observation{Health: h, Throughput: 1}
	}
	return c, observe
}

var oneModule = []model.Module{{Lo: 0, Hi: 3, Procs: 8, Replicas: 1}}

// TestControllerSubEpsilonRefitIsMemoHit: a correction inside the refit
// dead-band is not applied, so the belief chain stays bit-identical and
// the tick is a memo hit.
func TestControllerSubEpsilonRefitIsMemoHit(t *testing.T) {
	c, observe := refitController(t, oneModule)
	if d := c.Step(observe(1.25)); d.ChangedTasks != 3 {
		t.Fatalf("first refit moved %d tasks, want 3", d.ChangedTasks)
	}
	before := append([]float64(nil), c.ratio...)
	d := c.Step(observe(1.25 * (1 + refitEpsilon/2)))
	if d.ChangedTasks != 0 || d.SolvePath != PathMemo {
		t.Errorf("sub-epsilon refit: %d tasks moved, path %q; want 0 and %q", d.ChangedTasks, d.SolvePath, PathMemo)
	}
	if !reflect.DeepEqual(c.ratio, before) {
		t.Errorf("sub-epsilon refit changed the beliefs: %v, was %v", c.ratio, before)
	}
}

// TestControllerSubEpsilonDriftLands pins the dead-band's anchor: it gates
// against the last applied ratio, so a drift of sub-epsilon steps lands
// once the steps add up to more than epsilon instead of being dropped one
// step at a time forever.
func TestControllerSubEpsilonDriftLands(t *testing.T) {
	c, observe := refitController(t, oneModule)
	r := 1.25
	c.Step(observe(r))
	applied := c.ratio[0]
	landed := 0
	for i := 0; i < 10; i++ {
		r *= 1 + 0.4*refitEpsilon
		d := c.Step(observe(r))
		switch {
		case d.ChangedTasks > 0:
			landed++
		case d.SolvePath != PathMemo:
			t.Errorf("step %d: dropped drift step took path %q, want %q", i, d.SolvePath, PathMemo)
		}
	}
	if landed == 0 || landed == 10 {
		t.Errorf("%d of 10 sub-epsilon drift steps landed, want some but not all", landed)
	}
	if c.ratio[0] == applied {
		t.Error("sustained drift never moved the applied ratio")
	}
}

// TestControllerRefusesNonFiniteCorrections: a NaN or infinite correction
// is never applied. A refit ratio is clamped finite, so the poison here
// is the generation-start correction it multiplies.
func TestControllerRefusesNonFiniteCorrections(t *testing.T) {
	c, observe := refitController(t, oneModule)
	c.genRatio[0], c.genRatio[1], c.genRatio[2] = math.NaN(), math.Inf(1), math.Inf(-1)
	d := c.Step(observe(1.25))
	if d.ChangedTasks != 0 {
		t.Errorf("%d non-finite corrections applied", d.ChangedTasks)
	}
	for i, r := range c.ratio {
		if r != 1 {
			t.Errorf("task %d ratio %v after a non-finite correction, want 1", i, r)
		}
	}
}

// TestControllerChangedTasksCountsEachTaskOnce: ChangedTasks counts the
// tasks whose correction moved this cycle, each once, whatever the number
// of stages.
func TestControllerChangedTasksCountsEachTaskOnce(t *testing.T) {
	c, observe := refitController(t, []model.Module{
		{Lo: 0, Hi: 1, Procs: 4, Replicas: 1},
		{Lo: 1, Hi: 3, Procs: 4, Replicas: 1},
	})
	for i, step := range []struct {
		ratios []float64
		want   int
	}{
		{[]float64{1, 1.25}, 2},   // the two-task stage moves
		{[]float64{1, 1.25}, 0},   // nothing moves
		{[]float64{1.5, 1.25}, 1}, // the one-task stage moves
		{[]float64{2, 2}, 3},      // every task moves
	} {
		if d := c.Step(observe(step.ratios...)); d.ChangedTasks != step.want {
			t.Errorf("step %d: %d changed tasks, want %d", i, d.ChangedTasks, step.want)
		}
	}
}

// TestControllerChangedTasksRestartsEachCycle: the change count starts
// from zero each cycle while the applied corrections carry over, so a
// later cycle's dead-band is centred on the applied value, not on 1.
func TestControllerChangedTasksRestartsEachCycle(t *testing.T) {
	c, observe := refitController(t, oneModule)
	if d := c.Step(observe(2)); d.ChangedTasks != 3 {
		t.Fatalf("first refit moved %d tasks, want 3", d.ChangedTasks)
	}
	if d := c.Step(observe(2)); d.ChangedTasks != 0 {
		t.Errorf("next cycle counted %d changed tasks, want 0", d.ChangedTasks)
	}
	for i, r := range c.ratio {
		if r != 2 {
			t.Errorf("task %d ratio %v after an unchanged cycle, want the applied 2", i, r)
		}
	}
	if d := c.Step(observe(2 * (1 + refitEpsilon/2))); d.ChangedTasks != 0 {
		t.Errorf("move inside the dead-band around the applied 2 counted %d tasks, want 0", d.ChangedTasks)
	}
	if d := c.Step(observe(2.2)); d.ChangedTasks != 3 {
		t.Errorf("move outside the dead-band counted %d tasks, want 3", d.ChangedTasks)
	}
	for i, r := range c.ratio {
		if r != 2.2 {
			t.Errorf("task %d ratio %v, want the newly applied 2.2", i, r)
		}
	}
}

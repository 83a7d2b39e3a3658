package main

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pipemap/internal/adapt"
	"pipemap/internal/core"
	"pipemap/internal/ingest"
	"pipemap/internal/model"
	"pipemap/internal/obs/live"
)

// twoStageChain is a two-task chain whose tasks cost aC2/p and bC2/p on an
// 8-processor platform. Clustering them costs a whole second of internal
// redistribution, so every mapping worth solving for keeps two modules.
func twoStageChain(aC2, bC2 float64) (*model.Chain, model.Platform) {
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

// batchSize is the number of submissions fed between two test ticks.
const batchSize = 8

// loopRig serves a pipeline solved under a wrong cost model: the believed
// chain makes task a heavy and b cheap, so the solver gives a almost every
// processor, but the model app emulates the opposite truth. The adapt loop
// runs as the CLI runs it, except that the test sends its ticks.
type loopRig struct {
	ctrl   *adapt.Controller
	plane  *ingest.Plane
	curMon atomic.Pointer[live.Monitor]
	ticks  chan time.Time
	done   chan struct{}
	once   sync.Once
	wg     sync.WaitGroup
	// gens and tputs record, per fed batch, the generation it ran on and
	// its observed throughput.
	gens  []int
	tputs []float64
	fed   int
}

func newWrongCostRig(t *testing.T) *loopRig {
	t.Helper()
	believed, pl := twoStageChain(8, 1)
	truth, _ := twoStageChain(1, 8)
	const speedup = 400.0

	res, err := core.Map(core.Request{Chain: believed, Platform: pl, Algorithm: core.DP})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mapping.Modules[0].Procs <= res.Mapping.Modules[1].Procs {
		t.Fatalf("precondition: believed solve %s should favor task a", res.Mapping.String())
	}
	ctrl, err := adapt.NewController(adapt.Config{
		Chain: believed, Platform: pl, Initial: res.Mapping,
		Threshold: 0.2, TimeScale: speedup,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The spec the model app emulates is the truth, whatever the solver
	// believed.
	sc := serveConfig{speedup: speedup}
	p, opts, _, err := buildIngestApp(sc, truth, res.Mapping)
	if err != nil {
		t.Fatal(err)
	}
	plane, err := ingest.New(ingest.Config{Dispatchers: pl.Procs}, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	r := &loopRig{ctrl: ctrl, plane: plane, ticks: make(chan time.Time), done: make(chan struct{})}
	r.curMon.Store(p.Monitor)
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		adaptLoop(io.Discard, sc, truth, plane, ctrl, &r.curMon, r.ticks, r.done)
	}()
	t.Cleanup(func() {
		r.stop()
		plane.Drain()
	})
	return r
}

// stop ends the adapt loop; once it returns, every tick sent has been
// fully handled.
func (r *loopRig) stop() {
	r.once.Do(func() { close(r.done) })
	r.wg.Wait()
}

// batch feeds batchSize data sets through the plane and waits for every
// outcome.
func (r *loopRig) batch(t *testing.T) {
	t.Helper()
	gen := r.ctrl.Generation()
	st := feed(t.Context(), r.plane, batchSize, r.ctrl.Platform().Procs)
	if st.completed != batchSize {
		t.Fatalf("batch on generation %d: %d of %d data sets completed", gen, st.completed, batchSize)
	}
	r.fed += st.completed
	r.gens = append(r.gens, gen)
	r.tputs = append(r.tputs, st.throughput)
}

// tick sends the loop one tick after a batch and waits until the loop has
// stepped the controller and served its decision: a batch leaves samples
// on every stage of the serving generation, so the tick is never idle.
func (r *loopRig) tick(t *testing.T) {
	t.Helper()
	want := r.ctrl.Status().Cycles + 1
	r.ticks <- time.Now()
	deadline := time.Now().Add(10 * time.Second)
	for r.ctrl.Status().Cycles < want || r.curMon.Load().Health().Mapping != mapStr(r.ctrl.Mapping()) {
		if time.Now().After(deadline) {
			t.Fatalf("tick not handled: %d cycles, want %d; serving %s, controller on %s",
				r.ctrl.Status().Cycles, want, r.curMon.Load().Health().Mapping, mapStr(r.ctrl.Mapping()))
		}
		time.Sleep(time.Millisecond)
	}
}

// meanThroughput averages the batch throughputs observed on generation
// gen.
func (r *loopRig) meanThroughput(gen int) float64 {
	var sum float64
	var n int
	for i, g := range r.gens {
		if g == gen {
			sum += r.tputs[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// TestAdaptLoopCorrectsWrongCostModel is the end-to-end closed loop on the
// plane: the controller must observe the real stage service times, refit
// the models online, re-solve, live-migrate, and the post-migration
// generation's observed throughput must beat the pre-migration one.
func TestAdaptLoopCorrectsWrongCostModel(t *testing.T) {
	r := newWrongCostRig(t)
	for i := 0; i < 64/batchSize; i++ {
		r.batch(t)
		r.tick(t)
	}
	r.stop()

	st := r.ctrl.Status()
	if st.Migrations < 1 {
		t.Fatalf("controller never migrated; last decision: %+v", st.LastDecision)
	}
	if st.Rollbacks != 0 {
		t.Errorf("unexpected rollback(s): %d", st.Rollbacks)
	}
	if st.Generation < 1 {
		t.Errorf("generation %d, want >= 1", st.Generation)
	}
	final := r.ctrl.Mapping()
	if final.Modules[1].Procs <= final.Modules[0].Procs {
		t.Errorf("final mapping %s still favors task a after refit", mapStr(final))
	}

	first, last := r.gens[0], r.gens[len(r.gens)-1]
	if first == last {
		t.Fatalf("every batch ran on generation %d; expected at least two generations", first)
	}
	pre, post := r.meanThroughput(first), r.meanThroughput(last)
	if post <= pre {
		t.Errorf("post-migration observed throughput %.2f/s does not beat pre-migration %.2f/s", post, pre)
	}
	if r.fed != 64 {
		t.Errorf("streamed %d data sets, want 64", r.fed)
	}

	// The per-stage refits must have moved in the right direction: stage b
	// corrected upward, stage a downward.
	var sawUp bool
	for _, rf := range st.Refits {
		if rf.Ratio > 2 {
			sawUp = true
		}
	}
	// Refits reset at each generation; inspect the last migrate decision's
	// predicted gain instead when the new generation has not refit yet.
	if !sawUp && st.LastDecision != nil && st.PredictedGain <= 0 {
		t.Errorf("no upward refit recorded and no positive predicted gain: %+v", st.Refits)
	}
}

// TestAdaptLoopMonitorFollowsGenerations checks the served monitor swaps
// on migration and the retired generation's monitor saw the drain marker
// and finished — what /readyz keys off during the switch window.
func TestAdaptLoopMonitorFollowsGenerations(t *testing.T) {
	r := newWrongCostRig(t)
	firstMon := r.curMon.Load()
	for i := 0; i < 48/batchSize; i++ {
		r.batch(t)
		r.tick(t)
	}
	r.stop()
	if r.ctrl.Generation() < 1 {
		t.Fatalf("no migration happened; cannot check monitor swap")
	}
	if r.curMon.Load() == firstMon {
		t.Error("served monitor did not swap after migration")
	}
	var sawDrainStart bool
	for _, ev := range firstMon.Events().History() {
		if ev.Kind == "drain-start" {
			sawDrainStart = true
		}
	}
	if !sawDrainStart {
		t.Error("retired monitor missing its drain-start event")
	}
	if !firstMon.Health().Finished {
		t.Error("retired generation's monitor not marked finished")
	}
}

// TestAdaptLoopKeepsMigrationThroughIdleTicks checks a migrated generation
// is judged by its capacity, not by its traffic. Ticks with no samples on
// the new generation must not step the controller at all, and once it has
// served a batch and then sat idle, its falling sink rate must not read as
// a regression.
func TestAdaptLoopKeepsMigrationThroughIdleTicks(t *testing.T) {
	r := newWrongCostRig(t)
	for i := 0; r.ctrl.Status().Migrations == 0; i++ {
		if i == 64/batchSize {
			t.Fatalf("controller never migrated; last decision: %+v", r.ctrl.Status().LastDecision)
		}
		r.batch(t)
		r.tick(t)
	}
	cycles := r.ctrl.Status().Cycles
	for i := 0; i < 3; i++ {
		r.ticks <- time.Now()
	}
	if got := r.ctrl.Status().Cycles; got != cycles {
		t.Errorf("idle ticks stepped the controller: %d cycles, want %d", got, cycles)
	}
	r.batch(t)
	// Idle long enough that the new generation's sink rate falls far below
	// the pre-migration one; its measured periods do not move. This tick
	// evaluates the migration.
	time.Sleep(300 * time.Millisecond)
	r.tick(t)
	r.stop()
	st := r.ctrl.Status()
	if st.Rollbacks != 0 || st.Generation < 1 {
		t.Errorf("rollbacks=%d generation=%d, want the migrated generation kept: %+v",
			st.Rollbacks, st.Generation, st.LastDecision)
	}
	if st.ObservedGain <= 0 {
		t.Errorf("observed gain %g, want the migration's capacity gain measured", st.ObservedGain)
	}
}

// TestModelAppEmulatesSpec builds a generation from a mapping whose chain
// carries scaled beliefs: its stages must sleep the spec chain's response
// times, divided by the speedup, not the beliefs'.
func TestModelAppEmulatesSpec(t *testing.T) {
	spec, _ := twoStageChain(4, 8)
	const speedup, believedScale = 100.0, 10.0
	believed := &model.Chain{ICom: spec.ICom, ECom: spec.ECom}
	for _, task := range spec.Tasks {
		task.Exec = model.ScaleCost{F: task.Exec, K: believedScale}
		believed.Tasks = append(believed.Tasks, task)
	}
	modules := []model.Module{{Lo: 0, Hi: 1, Procs: 1, Replicas: 1}, {Lo: 1, Hi: 2, Procs: 2, Replicas: 1}}
	m := model.Mapping{Chain: believed, Modules: modules}
	pl, _, _, err := buildIngestApp(serveConfig{speedup: speedup}, spec, m)
	if err != nil {
		t.Fatal(err)
	}
	want := (&model.Mapping{Chain: spec, Modules: modules}).ResponseTimes()
	for i, st := range pl.Stages {
		sleep := time.Duration(want[i] / speedup * float64(time.Second))
		start := time.Now()
		if _, err := st.Run(nil, 0); err != nil {
			t.Fatal(err)
		}
		// The believed sleep is ten times the spec's; anything nearer the
		// spec's than the beliefs' emulates the spec.
		if got := time.Since(start); got < sleep || got >= sleep*(1+believedScale)/2 {
			t.Errorf("stage %d slept %v, want the spec's %v (beliefs: %v)", i, got, sleep, sleep*believedScale)
		}
	}
}

// FuzzModelCodecDecode feeds arbitrary submit inputs to the model app's
// codec. Decode parses untrusted request bodies, so each input must yield
// a data set or an error, never a panic.
func FuzzModelCodecDecode(f *testing.F) {
	for _, in := range []string{``, `{}`, `null`, `not json`, `7`, `-1`, `1.5`, `"7"`, `9223372036854775808`} {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, input string) {
		ds, err := modelCodec{}.Decode(json.RawMessage(input))
		if err == nil && ds == nil {
			t.Errorf("Decode(%q) returned neither a data set nor an error", input)
		}
	})
}

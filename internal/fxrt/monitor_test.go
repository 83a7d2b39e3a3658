package fxrt

import (
	"strings"
	"testing"
	"time"

	"pipemap/internal/model"
	"pipemap/internal/obs/live"
)

// monitorChain mirrors the simulator tests' 3-task chain: two modules, the
// first replicated twice.
func monitorChain() model.Mapping {
	c := &model.Chain{
		Tasks: []model.Task{
			{Name: "a", Exec: model.PolyExec{C2: 4}, Replicable: true},
			{Name: "b", Exec: model.PolyExec{C2: 4}, Replicable: true},
			{Name: "c", Exec: model.PolyExec{C1: 0.1, C2: 2}, Replicable: true},
		},
		ICom: []model.CostFunc{model.PolyExec{C1: 0.05, C2: 0.5}, model.ZeroExec()},
		ECom: []model.CommFunc{
			model.PolyComm{C1: 0.05, C2: 0.5, C3: 0.5},
			model.PolyComm{C1: 0.05, C2: 0.5, C3: 0.5},
		},
	}
	return model.Mapping{Chain: c, Modules: []model.Module{
		{Lo: 0, Hi: 1, Procs: 2, Replicas: 2},
		{Lo: 1, Hi: 3, Procs: 4, Replicas: 1},
	}}
}

func TestModelPipeline(t *testing.T) {
	m := monitorChain()
	p, err := ModelPipeline(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Stages) != 2 {
		t.Fatalf("stages = %d, want 2", len(p.Stages))
	}
	if p.Stages[0].Name != "a" || p.Stages[0].Replicas != 2 {
		t.Errorf("stage 0 = %+v, want name a, r=2", p.Stages[0])
	}
	if p.Stages[1].Name != "b+c" || p.Stages[1].Replicas != 1 {
		t.Errorf("stage 1 = %+v, want name b+c, r=1", p.Stages[1])
	}
	if _, err := ModelPipeline(model.Mapping{}, 1); err == nil {
		t.Error("empty mapping accepted")
	}
}

func TestModelPipelineRunsWithMonitor(t *testing.T) {
	m := monitorChain()
	// Large speedup compresses the multi-second model times into
	// microseconds so the test stays fast.
	const speedup = 1e5
	p, err := ModelPipeline(m, speedup)
	if err != nil {
		t.Fatal(err)
	}
	p.Retry = RetryPolicy{MaxRetries: 1}
	mon := live.NewMonitor(live.ConfigFromMapping(m).Scale(speedup))
	p.Monitor = mon

	const n = 40
	stats, err := p.Run(func(i int) DataSet { return i }, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DataSets != n || stats.Dropped != 0 {
		t.Fatalf("stats = %+v, want %d data sets, 0 dropped", stats, n)
	}
	h := mon.Health()
	if !h.Started || !h.Finished {
		t.Errorf("health started/finished = %v/%v, want true/true", h.Started, h.Finished)
	}
	if h.Completed != n {
		t.Errorf("completed = %d, want %d", h.Completed, n)
	}
	for i, sh := range h.Stages {
		if sh.Completed != n {
			t.Errorf("stage %d completed = %d, want %d", i, sh.Completed, n)
		}
	}
	if h.Status != "nominal" || !h.Ready {
		t.Errorf("status = %q ready=%v, want nominal/ready", h.Status, h.Ready)
	}
}

func TestMonitorObservesFaults(t *testing.T) {
	// Replicas pull from one shared inbox, so left alone the healthy
	// replica could drain every zero-work data set before instance 0 takes
	// the DeadAfter attempts that kill it. The survivor therefore holds its
	// first data set until the death is published.
	dead := make(chan struct{})
	p := &Pipeline{
		Stages: []Stage{
			{Name: "front", Workers: 1, Replicas: 2,
				Run: func(ctx *StageCtx, in DataSet) (DataSet, error) {
					if ctx.Instance == 1 {
						select {
						case <-dead:
						case <-time.After(time.Minute): // no death: the assertions below fail
						}
					}
					return in, nil
				}},
			{Name: "back", Workers: 1, Replicas: 1,
				Run: func(_ *StageCtx, in DataSet) (DataSet, error) { return in, nil }},
		},
		Retry:     RetryPolicy{MaxRetries: 1},
		DeadAfter: 2,
		// Instance 0 of the front stage fails every attempt: it retries,
		// dies, and its data sets requeue to the survivor.
		Faults: []Fault{{Stage: 0, Instance: 0, DataSet: -1, Kind: FaultFail}},
	}
	mon := live.NewMonitor(live.ConfigFromMapping(monitorChain()))
	p.Monitor = mon

	const n = 30
	events, _, cancel := mon.Events().Subscribe(4 * n)
	defer cancel()
	go func() {
		for ev := range events {
			if ev.Kind == "death" {
				close(dead)
				return
			}
		}
	}()
	stats, err := p.Run(func(i int) DataSet { return i }, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Dead != 1 {
		t.Fatalf("stats.Dead = %d, want 1", stats.Dead)
	}
	h := mon.Health()
	if h.Deaths != 1 || h.Stages[0].Live != 1 {
		t.Errorf("monitor deaths=%d live=%d, want 1/1", h.Deaths, h.Stages[0].Live)
	}
	if h.Status != "degraded" || h.Ready {
		t.Errorf("status = %q ready=%v, want degraded/not-ready", h.Status, h.Ready)
	}
	if !strings.Contains(h.Reason, "death") {
		t.Errorf("reason = %q, want mention of death", h.Reason)
	}
	if int(h.Retries) != stats.Retried {
		t.Errorf("monitor retries = %d, stats retried = %d", h.Retries, stats.Retried)
	}
	if h.Completed != int64(n-stats.Dropped) {
		t.Errorf("monitor completed = %d, want %d", h.Completed, n-stats.Dropped)
	}
	// The event stream carries the death with stage attribution.
	var sawDeath bool
	for _, ev := range mon.Events().History() {
		if ev.Kind == "death" && ev.Stage == "a" {
			sawDeath = true
		}
	}
	if !sawDeath {
		t.Errorf("no death event in history: %+v", mon.Events().History())
	}
}

func TestMonitorObservesTimeoutsAndDrops(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	p := &Pipeline{
		Stages: []Stage{
			{Name: "only", Workers: 1, Replicas: 2,
				Run: func(_ *StageCtx, in DataSet) (DataSet, error) {
					if in.(int) == 3 {
						<-block // hang data set 3 on every attempt
					}
					return in, nil
				}},
		},
		Retry:         RetryPolicy{MaxRetries: 1},
		StageDeadline: 20 * time.Millisecond,
	}
	mon := live.NewMonitor(live.Config{Stages: []live.StageInfo{{Name: "only", Replicas: 2}}})
	p.Monitor = mon
	stats, err := p.Run(func(i int) DataSet { return i }, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Dropped != 1 || stats.Timeouts != 2 {
		t.Fatalf("stats = %+v, want 1 dropped, 2 timeouts", stats)
	}
	h := mon.Health()
	if h.Drops != 1 || h.Timeouts != 2 {
		t.Errorf("monitor drops=%d timeouts=%d, want 1/2", h.Drops, h.Timeouts)
	}
	if h.Status != "degraded" {
		t.Errorf("status = %q, want degraded (window drops)", h.Status)
	}
	if h.Completed != 7 {
		t.Errorf("completed = %d, want 7", h.Completed)
	}
}

// TestPlainRunReportsToMonitor checks that a Run without fault-tolerance
// options still reports every completion to its Monitor: every run feeds
// the live health model, so no caller has to add a retry policy for it.
func TestPlainRunReportsToMonitor(t *testing.T) {
	p := &Pipeline{
		Stages: []Stage{{Name: "s", Workers: 1, Replicas: 1,
			Run: func(_ *StageCtx, in DataSet) (DataSet, error) { return in, nil }}},
	}
	mon := live.NewMonitor(live.Config{Stages: []live.StageInfo{{Name: "s", Replicas: 1}}})
	p.Monitor = mon
	if p.faultTolerant() {
		t.Fatal("Monitor alone counted as a fault-tolerance option")
	}
	const n = 10
	if _, err := p.Run(func(i int) DataSet { return i }, n, 0); err != nil {
		t.Fatal(err)
	}
	h := mon.Health()
	if h.Completed != n {
		t.Errorf("monitor saw %d completions, want %d", h.Completed, n)
	}
	if !h.Started || !h.Finished {
		t.Errorf("health started/finished = %v/%v, want true/true", h.Started, h.Finished)
	}
}

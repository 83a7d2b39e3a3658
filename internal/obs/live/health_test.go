package live

import (
	"math"
	"testing"
	"time"

	"pipemap/internal/model"
)

// testMapping returns a 3-task chain mapped to two modules, the first
// replicated twice. Module 1 is the predicted bottleneck.
func testMapping() model.Mapping {
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

func approx(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

func TestConfigFromMapping(t *testing.T) {
	m := testMapping()
	cfg := ConfigFromMapping(m)
	if len(cfg.Stages) != 2 {
		t.Fatalf("stages = %d, want 2", len(cfg.Stages))
	}
	resp := m.ResponseTimes()
	eff := m.EffectiveResponseTimes()
	for i, st := range cfg.Stages {
		if !approx(st.PredictedResponse, resp[i]) || !approx(st.PredictedPeriod, eff[i]) {
			t.Errorf("stage %d: predicted (%g, %g), want (%g, %g)",
				i, st.PredictedResponse, st.PredictedPeriod, resp[i], eff[i])
		}
	}
	if cfg.Stages[0].Name != "a" || cfg.Stages[0].Replicas != 2 || cfg.Stages[0].Workers != 2 {
		t.Errorf("stage 0 = %+v, want name a, r=2, p=2", cfg.Stages[0])
	}
	if !approx(cfg.PredictedThroughput, m.Throughput()) {
		t.Errorf("throughput = %g, want %g", cfg.PredictedThroughput, m.Throughput())
	}
	if !approx(cfg.PredictedLatency, m.Latency()) {
		t.Errorf("latency = %g, want %g", cfg.PredictedLatency, m.Latency())
	}
	if cfg.Mapping != m.String() {
		t.Errorf("mapping string = %q, want %q", cfg.Mapping, m.String())
	}
}

func TestConfigScale(t *testing.T) {
	cfg := ConfigFromMapping(testMapping())
	s := cfg.Scale(10)
	if !approx(s.PredictedThroughput, cfg.PredictedThroughput*10) {
		t.Errorf("scaled throughput = %g, want %g", s.PredictedThroughput, cfg.PredictedThroughput*10)
	}
	if !approx(s.Stages[0].PredictedPeriod, cfg.Stages[0].PredictedPeriod/10) {
		t.Errorf("scaled period = %g, want %g", s.Stages[0].PredictedPeriod, cfg.Stages[0].PredictedPeriod/10)
	}
	// The original is untouched (Scale copies).
	if !approx(cfg.Stages[0].PredictedPeriod, ConfigFromMapping(testMapping()).Stages[0].PredictedPeriod) {
		t.Error("Scale mutated the original config")
	}
}

func TestHealthModelLifecycle(t *testing.T) {
	vc := NewVirtualClock()
	cfg := ConfigFromMapping(testMapping())
	cfg.Options = Options{Window: 30 * time.Second, Clock: vc.Clock()}
	mon := NewMonitor(cfg)

	// Before Start: not ready.
	h := mon.Health()
	if h.Ready || h.Started {
		t.Fatalf("unstarted monitor ready: %+v", h)
	}
	if h.Reason == "" {
		t.Fatal("unstarted monitor gives no reason")
	}

	vc.SetSeconds(1)
	mon.Start()
	h = mon.Health()
	if !h.Ready || h.Status != "nominal" {
		t.Fatalf("started monitor not ready/nominal: status=%q ready=%v", h.Status, h.Ready)
	}

	// Observed periods: stage 0 latency 0.2 over 2 live replicas = 0.1;
	// stage 1 latency 0.3 over 1 replica = 0.3 -> bottleneck is stage 1.
	vc.SetSeconds(2)
	for i := 0; i < 10; i++ {
		mon.StageDone(0, 0.2)
		mon.StageDone(1, 0.3)
		mon.Completed(0.5)
	}
	h = mon.Health()
	if !approx(h.Stages[0].ObservedPeriod, 0.1) {
		t.Errorf("stage 0 observed period = %g, want 0.1", h.Stages[0].ObservedPeriod)
	}
	if !approx(h.Stages[1].ObservedPeriod, 0.3) {
		t.Errorf("stage 1 observed period = %g, want 0.3", h.Stages[1].ObservedPeriod)
	}
	if h.BottleneckStage != 1 || !h.Stages[1].Bottleneck {
		t.Errorf("bottleneck = %d, want 1", h.BottleneckStage)
	}
	if h.Completed != 10 {
		t.Errorf("completed = %d, want 10", h.Completed)
	}
	if h.ObservedThroughput <= 0 {
		t.Errorf("observed throughput = %g, want > 0", h.ObservedThroughput)
	}

	// A death degrades the pipeline permanently and halves stage 0's
	// serving capacity: its observed period doubles.
	mon.InstanceDeath(0, 7)
	h = mon.Health()
	if h.Status != "degraded" || h.Ready {
		t.Fatalf("after death: status=%q ready=%v, want degraded/not-ready", h.Status, h.Ready)
	}
	if h.Deaths != 1 || h.Stages[0].Live != 1 {
		t.Errorf("deaths=%d live=%d, want 1/1", h.Deaths, h.Stages[0].Live)
	}
	if !approx(h.Stages[0].ObservedPeriod, 0.2) {
		t.Errorf("stage 0 observed period after death = %g, want 0.2", h.Stages[0].ObservedPeriod)
	}
	// Death events land in the hub with stage attribution.
	evs := mon.Events().History()
	var deaths int
	for _, ev := range evs {
		if ev.Kind == "death" && ev.Stage == "a" && ev.Dataset == 7 {
			deaths++
		}
	}
	if deaths != 1 {
		t.Errorf("death events = %d, want 1 (history %+v)", deaths, evs)
	}
}

func TestDropDegradationHeals(t *testing.T) {
	vc := NewVirtualClock()
	cfg := ConfigFromMapping(testMapping())
	cfg.Options = Options{Window: 10 * time.Second, Clock: vc.Clock()}
	mon := NewMonitor(cfg)
	vc.SetSeconds(1)
	mon.Start()
	mon.StageDrop(1, 3)
	h := mon.Health()
	if h.Status != "degraded" || h.Drops != 1 {
		t.Fatalf("after drop: status=%q drops=%d, want degraded/1", h.Status, h.Drops)
	}
	// Once the drop ages out of the window (and no replica died), the
	// pipeline heals back to nominal; the cumulative counter remains.
	vc.SetSeconds(100)
	h = mon.Health()
	if h.Status != "nominal" || !h.Ready {
		t.Fatalf("after window: status=%q ready=%v, want nominal/ready", h.Status, h.Ready)
	}
	if h.Drops != 1 {
		t.Errorf("cumulative drops = %d, want 1", h.Drops)
	}
}

func TestNilMonitor(t *testing.T) {
	var mon *Monitor
	if mon.Enabled() {
		t.Fatal("nil monitor enabled")
	}
	// All ingestion is a no-op, never a panic.
	mon.Start()
	mon.StageDone(0, 1)
	mon.StageRetry(0, 1)
	mon.StageTimeout(0, 1)
	mon.StageDrop(0, 1)
	mon.InstanceDeath(0, 1)
	mon.Completed(1)
	mon.Finish()
	if mon.Events() != nil {
		t.Fatal("nil monitor has events hub")
	}
	h := mon.Health()
	if h.Status != "disabled" || h.Ready {
		t.Fatalf("nil monitor health = %+v, want disabled", h)
	}
}

func TestMonitorOutOfRangeStage(t *testing.T) {
	mon := NewMonitor(Config{Stages: []StageInfo{{Name: "only", Replicas: 1}}})
	mon.StageDone(-1, 1)
	mon.StageDone(5, 1)
	mon.InstanceDeath(2, 0)
	h := mon.Health()
	if h.Deaths != 0 || h.Stages[0].Completed != 0 {
		t.Fatalf("out-of-range observations recorded: %+v", h)
	}
}

package fxrt

import (
	"fmt"
	"testing"
	"time"

	"pipemap/internal/obs"
)

// TestRecorderTimeRecordsErrorsSeparately is the regression test for the
// bug where Recorder.Time recorded failed operations under the bare name,
// silently mixing failed-attempt costs into the success samples. Failures
// must land under name+"/error".
func TestRecorderTimeRecordsErrorsSeparately(t *testing.T) {
	r := NewRecorder()
	if err := r.Time("op", func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	wantErr := fmt.Errorf("boom")
	if err := r.Time("op", func() error { return wantErr }); err != wantErr {
		t.Fatalf("Time swallowed the error: got %v", err)
	}
	sum := r.Summary()
	if sum["op"].Count != 1 {
		t.Errorf("op count = %d, want 1 (success only)", sum["op"].Count)
	}
	if sum["op/error"].Count != 1 {
		t.Errorf("op/error count = %d, want 1", sum["op/error"].Count)
	}
	if _, ok := sum["op/error"]; !ok {
		t.Error("failed attempt lost: no op/error entry")
	}
}

// traceIndex groups collected events for assertions.
type traceIndex struct {
	spans       []obs.Event // phase X, cat "stage"
	instants    map[string][]obs.Event
	threadNames map[int]string
}

func indexTrace(events []obs.Event) traceIndex {
	ix := traceIndex{instants: map[string][]obs.Event{}, threadNames: map[int]string{}}
	for _, e := range events {
		switch e.Phase {
		case "X":
			if e.Cat == "stage" {
				ix.spans = append(ix.spans, e)
			}
		case "i":
			ix.instants[e.Name] = append(ix.instants[e.Name], e)
		case "M":
			if e.Name == "thread_name" {
				ix.threadNames[e.TID], _ = e.Args["name"].(string)
			}
		}
	}
	return ix
}

func outcomes(spans []obs.Event) map[string]int {
	m := map[string]int{}
	for _, e := range spans {
		o, _ := e.Args["outcome"].(string)
		m[o]++
	}
	return m
}

// TestFTRunTraceSpansAndRetries checks the runtime tracing contract: one
// span per data set × stage × attempt, with failed attempts marked
// "error", dropped data sets marked by a "drop" instant, and each stage
// instance labelled via thread_name metadata.
func TestFTRunTraceSpansAndRetries(t *testing.T) {
	tr := obs.NewTracer()
	const n = 20
	p := &Pipeline{
		Stages: []Stage{workStage("w", 2, 0, nil)},
		Retry:  RetryPolicy{MaxRetries: 2, Backoff: time.Millisecond},
		Faults: []Fault{
			// Data set 3 fails once then heals: one "error" + one "ok" span.
			{Stage: 0, Instance: -1, DataSet: 3, Kind: FaultFail, Attempts: 1},
			// Data set 7 fails every attempt: exhausted → "drop" instant.
			{Stage: 0, Instance: -1, DataSet: 7, Kind: FaultFail},
		},
		Obs: tr,
	}
	stats, err := p.Run(func(i int) DataSet { return i }, n, 2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", stats.Dropped)
	}
	ix := indexTrace(tr.Events())

	// n-1 data sets succeed once, data set 3 needs 2 attempts, data set 7
	// burns all 3 attempts before dropping.
	wantSpans := (n - 2) + 2 + 3
	if len(ix.spans) != wantSpans {
		t.Errorf("stage spans = %d, want %d", len(ix.spans), wantSpans)
	}
	oc := outcomes(ix.spans)
	if oc["ok"] != n-1 {
		t.Errorf("ok spans = %d, want %d", oc["ok"], n-1)
	}
	if oc["error"] != 4 { // 1 (data set 3) + 3 (data set 7)
		t.Errorf("error spans = %d, want 4", oc["error"])
	}
	if len(ix.instants["drop"]) != 1 {
		t.Errorf("drop instants = %d, want 1", len(ix.instants["drop"]))
	}
	if d := ix.instants["drop"][0]; d.Args["dataset"] != 7 || d.Args["stage"] != "w" {
		t.Errorf("drop instant args wrong: %+v", d.Args)
	}
	// Both stage instances must be named rows.
	if ix.threadNames[0] != "w/0" || ix.threadNames[1] != "w/1" {
		t.Errorf("thread names wrong: %+v", ix.threadNames)
	}
	// Attempt numbers: data set 3's spans carry attempts 0 then 1.
	var ds3 []int
	for _, e := range ix.spans {
		if e.Args["dataset"] == 3 {
			ds3 = append(ds3, e.Args["attempt"].(int))
		}
	}
	if len(ds3) != 2 || ds3[0] != 0 || ds3[1] != 1 {
		t.Errorf("data set 3 attempts = %v, want [0 1]", ds3)
	}
}

// TestFTRunTraceDeathAndTimeout checks the instance-death instant and the
// "timeout" span outcome.
func TestFTRunTraceDeathAndTimeout(t *testing.T) {
	tr := obs.NewTracer()
	p := &Pipeline{
		Stages:    []Stage{workStage("w", 3, time.Millisecond, nil)},
		Retry:     RetryPolicy{MaxRetries: 1},
		DeadAfter: 1,
		Faults:    []Fault{{Stage: 0, Instance: 1, DataSet: -1, Kind: FaultFail}},
		Obs:       tr,
	}
	stats, err := p.Run(func(i int) DataSet { return i }, 30, 5)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Dead != 1 {
		t.Fatalf("dead = %d, want 1", stats.Dead)
	}
	ix := indexTrace(tr.Events())
	deaths := ix.instants["instance-death"]
	if len(deaths) != 1 {
		t.Fatalf("instance-death instants = %d, want 1", len(deaths))
	}
	if deaths[0].TID != 1 || deaths[0].Args["stage"] != "w" {
		t.Errorf("death instant wrong: tid=%d args=%+v", deaths[0].TID, deaths[0].Args)
	}

	tr2 := obs.NewTracer()
	p2 := &Pipeline{
		Stages:        []Stage{workStage("w", 2, 0, nil)},
		StageDeadline: 20 * time.Millisecond,
		Faults:        []Fault{{Stage: 0, Instance: -1, DataSet: 2, Kind: FaultHang}},
		Obs:           tr2,
	}
	stats2, err := p2.Run(func(i int) DataSet { return i }, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Timeouts < 1 {
		t.Fatalf("timeouts = %d, want >= 1", stats2.Timeouts)
	}
	oc := outcomes(indexTrace(tr2.Events()).spans)
	if oc["timeout"] < 1 {
		t.Errorf("no span with outcome timeout: %+v", oc)
	}
}

// TestFTRunTidsUniquePerInstance checks that multi-stage pipelines give
// every stage instance its own trace row (tid), offset by the replica
// counts of earlier stages.
func TestFTRunTidsUniquePerInstance(t *testing.T) {
	tr := obs.NewTracer()
	p := &Pipeline{
		Stages: []Stage{
			workStage("a", 2, 0, nil),
			workStage("b", 3, 0, nil),
		},
		Retry: RetryPolicy{MaxRetries: 1}, // a fault-tolerant run; it goes through Stream like any other
		Obs:   tr,
	}
	if _, err := p.Run(func(i int) DataSet { return i }, 20, 2); err != nil {
		t.Fatal(err)
	}
	ix := indexTrace(tr.Events())
	want := map[int]string{0: "a/0", 1: "a/1", 2: "b/0", 3: "b/1", 4: "b/2"}
	for tid, name := range want {
		if ix.threadNames[tid] != name {
			t.Errorf("tid %d named %q, want %q", tid, ix.threadNames[tid], name)
		}
	}
	// Every span's tid must belong to the stage it names.
	for _, e := range ix.spans {
		switch e.Name {
		case "a":
			if e.TID > 1 {
				t.Errorf("stage a span on tid %d", e.TID)
			}
		case "b":
			if e.TID < 2 || e.TID > 4 {
				t.Errorf("stage b span on tid %d", e.TID)
			}
		}
	}
}

// TestExportMetrics checks that a run's statistics land in an obs.Registry
// under the fxrt. prefix, including per-op histograms with true envelopes.
func TestExportMetrics(t *testing.T) {
	p := &Pipeline{
		Stages: []Stage{{Name: "rec", Workers: 1, Replicas: 2,
			Run: func(ctx *StageCtx, in DataSet) (DataSet, error) {
				return in, ctx.Rec.Time("op", func() error {
					time.Sleep(100 * time.Microsecond)
					return nil
				})
			}}},
		Retry:  RetryPolicy{MaxRetries: 2, Backoff: time.Millisecond},
		Faults: []Fault{{Stage: 0, Instance: -1, DataSet: 1, Kind: FaultFail, Attempts: 1}},
	}
	stats, err := p.Run(func(i int) DataSet { return i }, 15, 2)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	stats.ExportMetrics(reg)
	s := reg.Snapshot()
	if s.Counters["fxrt.datasets"] != 15 {
		t.Errorf("fxrt.datasets = %d, want 15", s.Counters["fxrt.datasets"])
	}
	if s.Counters["fxrt.retried"] < 1 {
		t.Errorf("fxrt.retried = %d, want >= 1", s.Counters["fxrt.retried"])
	}
	if s.Gauges["fxrt.throughput"] <= 0 {
		t.Errorf("fxrt.throughput = %g, want > 0", s.Gauges["fxrt.throughput"])
	}
	op := s.Histograms["fxrt.op.op"]
	if op.Count != 15 {
		t.Errorf("fxrt.op.op count = %d, want 15", op.Count)
	}
	if op.Min <= 0 || op.Max < op.Min {
		t.Errorf("fxrt.op.op envelope wrong: min=%g max=%g", op.Min, op.Max)
	}
	// Nil registry: no-op, no panic.
	stats.ExportMetrics(nil)
}

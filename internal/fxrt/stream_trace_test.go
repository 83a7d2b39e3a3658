package fxrt

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"pipemap/internal/obs"
)

func startedTrace(t *testing.T) *obs.ReqTrace {
	t.Helper()
	tr := obs.NewReqTracer(obs.ReqTracerConfig{SampleRate: 1})
	_, rt := tr.Start(obs.TraceID{}, false, "tenant", time.Now())
	if rt == nil {
		t.Fatal("rate-1 tracer did not sample")
	}
	return rt
}

// TestPushTracedRecordsStageSpans asserts the streaming executor records
// one stage span per attempt — including the failed attempt before a
// retry — attributed to the right stage index and attempt number.
func TestPushTracedRecordsStageSpans(t *testing.T) {
	p := echoPipeline(2, 1)
	p.Retry = RetryPolicy{MaxRetries: 2}
	// Stage 1 fails its first attempt only: the trace must show the error
	// attempt and the healing retry.
	p.Faults = []Fault{{Stage: 1, Instance: -1, DataSet: -1, Kind: FaultFail, Attempts: 1}}
	s, err := p.Stream(StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rt := startedTrace(t)
	res, err := s.PushTraced(context.Background(), 0, rt)
	if err != nil {
		t.Fatal(err)
	}
	if r := <-res; r.Err != nil {
		t.Fatalf("push result: %v", r.Err)
	}
	s.Close()

	var stageSpans []obs.ReqSpan
	for _, sp := range rt.Spans() {
		if sp.Kind == obs.SpanStage && sp.DurUS >= 0 && sp.Name != "" {
			stageSpans = append(stageSpans, sp)
		}
	}
	if len(stageSpans) != 3 {
		t.Fatalf("got %d stage spans %+v, want 3 (s0 ok, s1 error, s1 retry ok)", len(stageSpans), stageSpans)
	}
	want := []struct {
		name    string
		stage   int
		attempt int
		outcome string
	}{
		{"s0", 0, 0, "ok"},
		{"s1", 1, 0, "error"},
		{"s1", 1, 1, "ok"},
	}
	for i, w := range want {
		sp := stageSpans[i]
		if sp.Name != w.name || sp.Stage != w.stage || sp.Attempt != w.attempt || sp.Outcome != w.outcome {
			t.Errorf("span %d = %+v, want %+v", i, sp, w)
		}
	}
}

// TestPushTracedRecordsDrop asserts an exhausted data set leaves a drop
// marker on its trace.
func TestPushTracedRecordsDrop(t *testing.T) {
	p := echoPipeline(1, 1)
	p.Retry = RetryPolicy{MaxRetries: 1}
	p.Faults = []Fault{{Stage: 0, Instance: -1, DataSet: -1, Kind: FaultFail}}
	s, err := p.Stream(StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rt := startedTrace(t)
	res, err := s.PushTraced(context.Background(), 0, rt)
	if err != nil {
		t.Fatal(err)
	}
	if r := <-res; r.Err == nil {
		t.Fatal("permanently faulty stage produced a result")
	}
	s.Close()

	var drops, errorAttempts int
	for _, sp := range rt.Spans() {
		if sp.Kind == obs.SpanStage && sp.Outcome == "error" {
			errorAttempts++
		}
		if sp.Kind == obs.SpanStage && sp.Detail != "" && sp.DurUS == 0 {
			drops++
		}
	}
	if errorAttempts != 2 {
		t.Errorf("error attempts = %d, want 2 (initial + one retry)", errorAttempts)
	}
	if drops != 1 {
		t.Errorf("drop markers = %d, want 1 (spans: %+v)", drops, rt.Spans())
	}
}

// TestPushNilTraceUnchanged pins that the untraced path still flows (a nil
// trace must not cost correctness or panic anywhere in the executor).
func TestPushNilTraceUnchanged(t *testing.T) {
	s, err := echoPipeline(2, 1).Stream(StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.PushTraced(context.Background(), 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r := <-res; r.Err != nil || r.DS.(int) != 7 {
		t.Fatalf("result = %+v, want 7", r)
	}
	s.Close()
}

// pushAllTraced pushes data sets 0..n-1 through s in order, each under its
// own sampled trace, and waits for every result. Push order is the stream
// index, so traces[i] and results[i] belong to data set i.
func pushAllTraced(t *testing.T, s *Stream, n int) ([]*obs.ReqTrace, []StreamResult) {
	t.Helper()
	traces := make([]*obs.ReqTrace, n)
	chans := make([]<-chan StreamResult, n)
	for i := range n {
		traces[i] = startedTrace(t)
		ch, err := s.PushTraced(context.Background(), i, traces[i])
		if err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
		chans[i] = ch
	}
	results := make([]StreamResult, n)
	for i, ch := range chans {
		results[i] = <-ch
	}
	return traces, results
}

// traceSteps renders a trace's stage spans as "name/attempt:outcome" and
// its markers (instants, which carry no outcome) as "name:detail".
func traceSteps(rt *obs.ReqTrace) []string {
	var steps []string
	for _, sp := range rt.Spans() {
		if sp.Outcome == "" {
			steps = append(steps, sp.Name+":"+sp.Detail)
			continue
		}
		steps = append(steps, fmt.Sprintf("%s/%d:%s", sp.Name, sp.Attempt, sp.Outcome))
	}
	return steps
}

// TestFTRunTraceSpansAndRetries checks the executor's trace contract on a
// fault-tolerant stream: one stage span per data set × stage × attempt,
// each naming its stage index and an instance of that stage, failed
// attempts marked "error" with rising attempt numbers, and a drop marker
// on the trace of a data set that exhausts its attempts.
func TestFTRunTraceSpansAndRetries(t *testing.T) {
	const n = 20
	p := &Pipeline{
		Stages: []Stage{workStage("a", 2, 0, nil), workStage("w", 3, 0, nil)},
		Retry:  RetryPolicy{MaxRetries: 2, Backoff: time.Millisecond},
		Faults: []Fault{
			// Data set 3 fails once at w, then heals: an error and an ok span.
			{Stage: 1, Instance: -1, DataSet: 3, Kind: FaultFail, Attempts: 1},
			// Data set 7 fails every attempt at w: three errors, then a drop.
			{Stage: 1, Instance: -1, DataSet: 7, Kind: FaultFail},
		},
	}
	s, err := p.Stream(StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	traces, results := pushAllTraced(t, s, n)
	if st := s.Close(); st.Dropped != 1 || st.Retried != 3 {
		t.Errorf("dropped = %d, retried = %d, want 1 and 3", st.Dropped, st.Retried)
	}
	for i, rt := range traces {
		want := []string{"a/0:ok", "w/0:ok"}
		switch i {
		case 3:
			want = []string{"a/0:ok", "w/0:error", "w/1:ok"}
		case 7:
			want = []string{"a/0:ok", "w/0:error", "w/1:error", "w/2:error", "w:dropped: attempts exhausted"}
		}
		if got := traceSteps(rt); !slices.Equal(got, want) {
			t.Errorf("data set %d trace = %v, want %v", i, got, want)
		}
		if (results[i].Err != nil) != (i == 7) {
			t.Errorf("data set %d result error = %v", i, results[i].Err)
		}
		for _, sp := range rt.Spans() {
			// Attempt spans carry an outcome; markers carry only the name.
			stage := map[string]int{"a": 0, "w": 1}[sp.Name]
			if sp.Kind != obs.SpanStage ||
				sp.Outcome != "" && (sp.Stage != stage || sp.Replica < 0 || sp.Replica >= p.Stages[stage].Replicas) {
				t.Errorf("data set %d: span %+v not attributed to an instance of stage %d", i, sp, stage)
			}
		}
	}
}

// TestFTRunTraceDeathAndTimeout checks the instance-death marker, which
// follows the failed attempt on the dying instance and precedes the
// requeued attempt on a survivor, and the "timeout" outcome of an attempt
// cut off at the stage deadline.
func TestFTRunTraceDeathAndTimeout(t *testing.T) {
	p := &Pipeline{
		Stages:    []Stage{workStage("w", 3, time.Millisecond, nil)},
		Retry:     RetryPolicy{MaxRetries: 1},
		DeadAfter: 1,
		Faults:    []Fault{{Stage: 0, Instance: 1, DataSet: -1, Kind: FaultFail}},
	}
	s, err := p.Stream(StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	traces, results := pushAllTraced(t, s, 30)
	if st := s.Close(); st.Dead != 1 {
		t.Fatalf("dead = %d, want 1", st.Dead)
	}
	deaths := 0
	for i, rt := range traces {
		if results[i].Err != nil {
			t.Errorf("data set %d lost to the death: %v", i, results[i].Err)
		}
		spans := rt.Spans()
		for j, sp := range spans {
			if sp.Detail != "instance death; requeued" {
				continue
			}
			deaths++
			if sp.Name != "w" || j == 0 || spans[j-1].Outcome != "error" || spans[j-1].Replica != 1 {
				t.Errorf("data set %d: death marker not after a failed attempt on instance 1: %+v", i, spans)
			}
			if last := spans[len(spans)-1]; last.Outcome != "ok" || last.Replica == 1 {
				t.Errorf("data set %d: requeued attempt did not complete on a survivor: %+v", i, spans)
			}
		}
	}
	if deaths != 1 {
		t.Errorf("death markers = %d, want 1", deaths)
	}

	p2 := &Pipeline{
		Stages:        []Stage{workStage("w", 2, 0, nil)},
		StageDeadline: 20 * time.Millisecond,
		Faults:        []Fault{{Stage: 0, Instance: -1, DataSet: 2, Kind: FaultHang}},
	}
	s2, err := p2.Stream(StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	traces2, results2 := pushAllTraced(t, s2, 10)
	if st := s2.Close(); st.Timeouts != 1 {
		t.Errorf("timeouts = %d, want 1", st.Timeouts)
	}
	if want := []string{"w/0:timeout", "w:dropped: attempts exhausted"}; !slices.Equal(traceSteps(traces2[2]), want) {
		t.Errorf("hung data set trace = %v, want %v", traceSteps(traces2[2]), want)
	}
	if results2[2].Err == nil {
		t.Error("hung data set produced a result")
	}
}

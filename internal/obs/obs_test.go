package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestTracerSpans(t *testing.T) {
	tr := NewTracer()
	start := time.Now()
	tr.NameThread(3, "worker/3")
	tr.Span("cat", "op", 3, start, 5*time.Millisecond)
	tr.SpanArgs("cat", "op2", 4, start, time.Millisecond, map[string]any{"k": 1})
	tr.Instant("fault", "boom", 3, start)
	tr.InstantArgs("fault", "boom2", 3, start, map[string]any{"dataset": 9})
	tr.VirtualSpan("sim", "exec", 0, 1.5, 2.5, nil)
	tr.VirtualInstant("fault", "fail", 0, 3.0, nil)

	events := tr.Events()
	if len(events) != 7 {
		t.Fatalf("got %d events, want 7", len(events))
	}
	if tr.Len() != 7 {
		t.Errorf("Len = %d, want 7", tr.Len())
	}
	byName := map[string]Event{}
	for _, e := range events {
		byName[e.Name] = e
	}
	if e := byName["op"]; e.Phase != "X" || e.TID != 3 || e.Dur < 4999 || e.Dur > 5001 {
		t.Errorf("span event wrong: %+v", e)
	}
	if e := byName["op2"]; e.TID != 4 || e.Args["k"] != 1 {
		t.Errorf("span args wrong: %+v", e)
	}
	if e := byName["boom2"]; e.Phase != "i" || e.Args["dataset"] != 9 {
		t.Errorf("instant args wrong: %+v", e)
	}
	if e := byName["boom"]; e.Phase != "i" || e.Scope != "t" {
		t.Errorf("instant event wrong: %+v", e)
	}
	if e := byName["exec"]; e.TS != 1.5e6 || e.Dur != 1e6 {
		t.Errorf("virtual span wrong: %+v", e)
	}
	if e := byName["thread_name"]; e.Phase != "M" || e.Args["name"] != "worker/3" {
		t.Errorf("thread_name metadata wrong: %+v", e)
	}
}

func TestTracerWriteJSON(t *testing.T) {
	tr := NewTracer()
	tr.VirtualSpan("sim", "exec", 1, 0, 1, map[string]any{"dataset": 0})
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got struct {
		TraceEvents []Event `json:"traceEvents"`
		Unit        string  `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(got.TraceEvents) != 1 || got.Unit != "ms" {
		t.Errorf("unexpected trace file: %+v", got)
	}
}

func TestNilTracerIsNoop(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Error("nil tracer reports enabled")
	}
	tr.Span("c", "n", 0, time.Now(), time.Second)
	tr.Instant("c", "n", 0, time.Now())
	tr.NameThread(0, "x")
	if tr.Len() != 0 || tr.Events() != nil {
		t.Error("nil tracer recorded events")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "traceEvents") {
		t.Errorf("nil tracer JSON invalid: %s", buf.String())
	}
}

package obs

import (
	"testing"
	"time"
)

// The package contract: a disabled (nil) recorder must cost nothing on
// hot paths — no allocations at the call site. ReqTrace.StageSpan's
// all-scalar signature exists precisely so the executor pays zero for an
// unsampled request.

func TestDisabledTracerAllocatesNothing(t *testing.T) {
	var tr *Tracer
	start := time.Now()
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Span("cat", "name", 0, start, time.Millisecond)
		tr.Instant("cat", "name", 0, start)
	})
	if allocs != 0 {
		t.Errorf("disabled tracer allocated %.1f times per op, want 0", allocs)
	}
}

func TestDisabledReqTracerAllocatesNothing(t *testing.T) {
	var tr *ReqTracer
	var rt *ReqTrace
	start := time.Now()
	allocs := testing.AllocsPerRun(1000, func() {
		id, got := tr.Start(TraceID{}, false, "tenant", start)
		if got != nil || !id.IsZero() {
			t.Fatal("nil tracer sampled")
		}
		rt.Span(SpanAdmission, "admit", start, time.Millisecond, "ok", "")
		rt.StageSpan("stage", 1, 2, 3, "ok", start, time.Millisecond)
		rt.Instant(SpanShed, "deadline", "late")
		tr.Finish(rt, "ok", time.Millisecond, time.Millisecond)
		tr.RecordShed(id, "tenant", "queue_full", "detail")
	})
	if allocs != 0 {
		t.Errorf("disabled request tracer allocated %.1f times per op, want 0", allocs)
	}
}

func TestEnabledUnsampledStartAllocatesNothing(t *testing.T) {
	// A live tracer whose rate rejects the request must also be free: the
	// sampling decision itself (ID generation + hash) stays on the stack.
	tr := NewReqTracer(ReqTracerConfig{SampleRate: 0})
	start := time.Now()
	allocs := testing.AllocsPerRun(1000, func() {
		_, rt := tr.Start(TraceID{}, false, "tenant", start)
		if rt != nil {
			t.Fatal("rate-0 tracer sampled")
		}
	})
	if allocs != 0 {
		t.Errorf("unsampled Start allocated %.1f times per op, want 0", allocs)
	}
}

func TestDisabledFlightRecorderAllocatesNothing(t *testing.T) {
	var f *FlightRecorder
	e := &FlightEntry{Kind: FlightTrace}
	allocs := testing.AllocsPerRun(1000, func() {
		f.Record(e)
		_ = f.Recorded()
	})
	if allocs != 0 {
		t.Errorf("disabled flight recorder allocated %.1f times per op, want 0", allocs)
	}
}

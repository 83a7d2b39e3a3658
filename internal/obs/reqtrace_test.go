package obs

import (
	"strings"
	"testing"
	"time"
)

func TestTraceIDRoundTrip(t *testing.T) {
	id := newTraceID()
	if id.IsZero() {
		t.Fatal("newTraceID returned the zero ID")
	}
	s := id.String()
	if len(s) != 32 || strings.ToLower(s) != s {
		t.Fatalf("String() = %q, want 32 lowercase hex chars", s)
	}
	back, ok := ParseTraceID(s)
	if !ok || back != id {
		t.Fatalf("ParseTraceID(%q) = %v, %v; want original id", s, back, ok)
	}
	if _, ok := ParseTraceID(strings.Repeat("0", 32)); ok {
		t.Error("all-zero trace ID accepted; the W3C spec reserves it")
	}
	if _, ok := ParseTraceID("abc"); ok {
		t.Error("short trace ID accepted")
	}
	if _, ok := ParseTraceID(strings.Repeat("zz", 16)); ok {
		t.Error("non-hex trace ID accepted")
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	id := newTraceID()
	for _, sampled := range []bool{true, false} {
		h := id.Traceparent(sampled)
		if len(h) != 55 {
			t.Fatalf("Traceparent length = %d, want 55 (%q)", len(h), h)
		}
		gotID, gotSampled, ok := ParseTraceparent(h)
		if !ok || gotID != id || gotSampled != sampled {
			t.Fatalf("ParseTraceparent(%q) = %v %v %v, want %v %v true", h, gotID, gotSampled, ok, id, sampled)
		}
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	valid := newTraceID().Traceparent(true)
	bad := []string{
		"",
		"00",
		strings.Replace(valid, "-", "_", 1),
		"00-" + strings.Repeat("0", 32) + valid[35:], // zero trace ID
		valid[:53] + "zz", // non-hex flags
		valid[:36] + strings.Repeat("0", 16) + valid[52:], // zero parent-id
		valid[:36] + strings.Repeat("z", 16) + valid[52:], // non-hex parent-id
		"ff" + valid[2:], // version ff is invalid
		"0g" + valid[2:], // non-hex version
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-01", // uppercase hex
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0A", // uppercase flags
		valid + "-00", // version 00 is exactly 55 bytes
		valid + "x",
		"01" + valid[2:] + "x", // a later version continues only after '-'
	}
	for _, h := range bad {
		if _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted malformed header", h)
		}
	}
	// The specification's own example parses.
	if _, sampled, ok := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"); !ok || !sampled {
		t.Errorf("W3C example header: sampled %v ok %v, want true true", sampled, ok)
	}
	// Unknown version with the standard layout parses (forward compat),
	// also with further fields after a '-'.
	if _, _, ok := ParseTraceparent("01" + valid[2:]); !ok {
		t.Error("unknown traceparent version with standard layout rejected")
	}
	if _, _, ok := ParseTraceparent("01" + valid[2:] + "-future"); !ok {
		t.Error("unknown traceparent version with trailing fields rejected")
	}
}

// FuzzParseTraceparent feeds arbitrary header values to the parser: it
// must never panic, and any header it accepts must round-trip its
// trace-id and sampled bit through Traceparent.
func FuzzParseTraceparent(f *testing.F) {
	for _, h := range []string{
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00",
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-future",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"",
	} {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, h string) {
		id, sampled, ok := ParseTraceparent(h)
		if !ok {
			return
		}
		if id.IsZero() || id.String() != h[3:35] {
			t.Fatalf("ParseTraceparent(%q) accepted trace-id %v", h, id)
		}
		if want := strings.IndexByte("13579bdf", h[54]) >= 0; sampled != want {
			t.Fatalf("ParseTraceparent(%q) sampled = %v, flags say %v", h, sampled, want)
		}
		back, backSampled, backOK := ParseTraceparent(id.Traceparent(sampled))
		if !backOK || back != id || backSampled != sampled {
			t.Fatalf("ParseTraceparent(%q) = %v %v does not round-trip: got %v %v %v",
				h, id, sampled, back, backSampled, backOK)
		}
	})
}

func TestSamplingDeterministicAndProportional(t *testing.T) {
	tr := NewReqTracer(ReqTracerConfig{SampleRate: 0.5})
	id := newTraceID()
	_, first := tr.Start(id, false, "a", time.Now())
	for i := 0; i < 10; i++ {
		if _, rt := tr.Start(id, false, "a", time.Now()); (rt != nil) != (first != nil) {
			t.Fatal("sampling decision not deterministic in the trace ID")
		}
	}
	sampled := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if _, rt := tr.Start(TraceID{}, false, "a", time.Now()); rt != nil {
			sampled++
		}
	}
	if frac := float64(sampled) / n; frac < 0.4 || frac > 0.6 {
		t.Errorf("rate-0.5 tracer sampled %.2f of requests", frac)
	}

	off := NewReqTracer(ReqTracerConfig{SampleRate: 0})
	if _, rt := off.Start(TraceID{}, false, "a", time.Now()); rt != nil {
		t.Error("rate-0 tracer sampled an unforced request")
	}
	if _, rt := off.Start(TraceID{}, true, "a", time.Now()); rt == nil {
		t.Error("force did not override a rate-0 tracer")
	}
	all := NewReqTracer(ReqTracerConfig{SampleRate: 1})
	if _, rt := all.Start(TraceID{}, false, "a", time.Now()); rt == nil {
		t.Error("rate-1 tracer skipped a request")
	}
}

func TestTracerStartFinishAccounting(t *testing.T) {
	fl := NewFlightRecorder(8)
	tr := NewReqTracer(ReqTracerConfig{SampleRate: 1, Flight: fl})
	at := time.Now()
	id, rt := tr.Start(TraceID{}, false, "tenant-a", at)
	if rt == nil || id.IsZero() {
		t.Fatal("rate-1 Start returned unsampled")
	}
	if rt.ID() != id || rt.Tenant() != "tenant-a" {
		t.Fatalf("trace identity mismatch: %v %q", rt.ID(), rt.Tenant())
	}
	rt.Span(SpanAdmission, "admit", at, time.Millisecond, "ok", "")
	rt.StageSpan("fft", 1, 0, 2, "ok", at.Add(time.Millisecond), 3*time.Millisecond)
	rt.Instant(SpanShed, "deadline", "late")
	spans := rt.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if spans[1].Stage != 1 || spans[1].Attempt != 2 || spans[1].Kind != SpanStage {
		t.Errorf("stage span fields wrong: %+v", spans[1])
	}
	tr.Finish(rt, "ok", 2*time.Millisecond, 5*time.Millisecond)
	st := tr.Stats()
	if st.Started != 1 || st.Sampled != 1 || st.Finished != 1 {
		t.Errorf("stats = %+v, want started/sampled/finished 1", st)
	}
	entries := fl.Snapshot()
	if len(entries) != 1 || entries[0].Kind != FlightTrace || entries[0].TraceID != id.String() {
		t.Fatalf("flight entries = %+v", entries)
	}
	if len(entries[0].Spans) != 3 || entries[0].SojournMS != 2 || entries[0].ServiceMS != 5 {
		t.Errorf("flight entry content wrong: %+v", entries[0])
	}
}

func TestRecordShedWithoutSampling(t *testing.T) {
	fl := NewFlightRecorder(8)
	tr := NewReqTracer(ReqTracerConfig{SampleRate: 0, Flight: fl})
	id, rt := tr.Start(TraceID{}, false, "t", time.Now())
	if rt != nil {
		t.Fatal("rate-0 sampled")
	}
	tr.RecordShed(id, "t", "queue_full", "depth 64")
	entries := fl.Snapshot()
	if len(entries) != 1 || entries[0].Kind != FlightShed || entries[0].Outcome != "queue_full" {
		t.Fatalf("shed not flight-recorded: %+v", entries)
	}
	if entries[0].TraceID != id.String() {
		t.Errorf("shed entry trace ID = %q, want %q", entries[0].TraceID, id.String())
	}
}

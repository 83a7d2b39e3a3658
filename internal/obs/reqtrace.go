package obs

import (
	"encoding/hex"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// Request-scoped tracing (DESIGN.md §13). A ReqTracer makes one head-based
// sampling decision per submitted request and hands the ingest data plane a
// *ReqTrace to thread through admission, queue wait, dispatch, every stage
// attempt, and the response write. A nil *ReqTracer is the disabled
// subsystem, and a nil *ReqTrace is an unsampled request: every recording
// method on both is a no-op that allocates nothing, so the ingest hot path
// pays zero when tracing is off (pinned by AllocsPerRun tests).

// TraceID is a W3C-style 16-byte trace identifier, rendered as 32 lowercase
// hex characters.
type TraceID [16]byte

// IsZero reports whether the ID is the invalid all-zero ID (the W3C spec
// reserves it; the disabled tracer returns it).
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String renders the ID as 32 lowercase hex characters.
func (id TraceID) String() string {
	var b [32]byte
	hex.Encode(b[:], id[:])
	return string(b[:])
}

// Traceparent renders the ID as a W3C traceparent header value
// ("00-<trace-id>-<parent-id>-<flags>"). The parent span ID is derived from
// the trace ID (this runtime does not track span parentage); sampled sets
// the trace-flags sampled bit, telling downstream services whether this
// request's trace was recorded here.
func (id TraceID) Traceparent(sampled bool) string {
	var b [55]byte
	b[0], b[1], b[2] = '0', '0', '-'
	hex.Encode(b[3:35], id[:])
	b[35] = '-'
	// Parent span ID: the trace ID's first half, with the last byte flipped
	// so it is non-zero even for adversarial inputs.
	var span [8]byte
	copy(span[:], id[:8])
	span[7] ^= 0xff
	hex.Encode(b[36:52], span[:])
	b[52] = '-'
	b[53] = '0'
	if sampled {
		b[54] = '1'
	} else {
		b[54] = '0'
	}
	return string(b[:])
}

// ParseTraceID parses a 32-hex-character trace ID (the X-Trace-Id wire
// form). The all-zero ID is invalid per the W3C spec and rejected.
func ParseTraceID(s string) (TraceID, bool) {
	var id TraceID
	if len(s) != 32 {
		return TraceID{}, false
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil || id.IsZero() {
		return TraceID{}, false
	}
	return id, true
}

// ParseTraceparent parses a W3C traceparent header
// ("<2 hex version>-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>")
// and returns the trace ID plus whether the sampled flag is set. It
// applies the W3C Trace Context rules: every field is lowercase hex, the
// trace-id and parent-id are not all zeros, and version ff is invalid.
// Version 00 is exactly 55 bytes; a later version may be longer only if
// the next byte is '-' (the spec's forward-compatibility rule). Malformed
// headers return ok=false.
func ParseTraceparent(h string) (id TraceID, sampled, ok bool) {
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return TraceID{}, false, false
	}
	version, parent := h[:2], h[36:52]
	if !lowerHex(version) || version == "ff" || !lowerHex(h[3:35]) ||
		!lowerHex(parent) || parent == "0000000000000000" || !lowerHex(h[53:55]) {
		return TraceID{}, false, false
	}
	if version == "00" && len(h) != 55 || len(h) > 55 && h[55] != '-' {
		return TraceID{}, false, false
	}
	id, ok = ParseTraceID(h[3:35])
	if !ok {
		return TraceID{}, false, false
	}
	var flags [1]byte
	if _, err := hex.Decode(flags[:], []byte(h[53:55])); err != nil {
		return TraceID{}, false, false
	}
	return id, flags[0]&0x01 != 0, true
}

// lowerHex reports whether s is made of lowercase hex digits only.
func lowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// newTraceID returns a random non-zero trace ID. The generator is seeded
// PRNG state, not cryptographic randomness: trace IDs need uniqueness, not
// unpredictability, and rand/v2's Uint64 is allocation-free.
func newTraceID() TraceID {
	var id TraceID
	for id.IsZero() {
		hi, lo := rand.Uint64(), rand.Uint64()
		for i := 0; i < 8; i++ {
			id[i] = byte(hi >> (8 * i))
			id[8+i] = byte(lo >> (8 * i))
		}
	}
	return id
}

// sampleHash folds a trace ID to the uint64 the sampling threshold is
// compared against (FNV-1a, so client-supplied IDs sample deterministically
// and uniformly too).
func sampleHash(id TraceID) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range id {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// Span kinds recorded on a request trace.
const (
	SpanAdmission = "admission" // Submit entry to queue offer
	SpanQueue     = "queue"     // queue sojourn: offer to dispatch
	SpanService   = "service"   // dispatch to pipeline result
	SpanStage     = "stage"     // one attempt of one pipeline stage
	SpanResponse  = "response"  // response encode + write
	SpanShed      = "shed"      // the shed decision (instant)
)

// ReqSpan is one recorded span of a request trace. Timestamps are
// microseconds relative to the trace's start, matching the Chrome
// trace_event convention so conversion is a field copy.
type ReqSpan struct {
	Kind    string  `json:"kind"`
	Name    string  `json:"name"`
	TSUS    float64 `json:"ts_us"`
	DurUS   float64 `json:"dur_us"`
	Stage   int     `json:"stage,omitempty"`   // stage index for stage spans
	Replica int     `json:"replica,omitempty"` // executing instance
	Attempt int     `json:"attempt,omitempty"` // 0-based attempt number
	Outcome string  `json:"outcome,omitempty"` // ok, error, timeout, retry, drop, shed
	Detail  string  `json:"detail,omitempty"`
}

// ReqTrace accumulates the spans of one sampled request. It is created by
// ReqTracer.Start and sealed by ReqTracer.Finish; all recording methods are
// safe for concurrent use (stages of a pipeline hand the trace across
// goroutines). A nil *ReqTrace (unsampled request) ignores every call.
type ReqTrace struct {
	id     TraceID
	tenant string
	start  time.Time

	mu    sync.Mutex
	spans []ReqSpan
}

// ID returns the trace ID (zero for a nil trace).
func (rt *ReqTrace) ID() TraceID {
	if rt == nil {
		return TraceID{}
	}
	return rt.id
}

// Tenant returns the tenant the trace was started for.
func (rt *ReqTrace) Tenant() string {
	if rt == nil {
		return ""
	}
	return rt.tenant
}

// Sampled reports whether the trace records spans (false for nil).
func (rt *ReqTrace) Sampled() bool { return rt != nil }

func (rt *ReqTrace) us(at time.Time) float64 {
	return float64(at.Sub(rt.start)) / float64(time.Microsecond)
}

// Span records one completed span.
func (rt *ReqTrace) Span(kind, name string, start time.Time, dur time.Duration, outcome, detail string) {
	if rt == nil {
		return
	}
	rt.mu.Lock()
	rt.spans = append(rt.spans, ReqSpan{
		Kind: kind, Name: name, TSUS: rt.us(start),
		DurUS:   float64(dur) / float64(time.Microsecond),
		Outcome: outcome, Detail: detail,
	})
	rt.mu.Unlock()
}

// StageSpan records one attempt of one pipeline stage — the runtime's hot
// path, all-scalar so a nil (unsampled) trace costs nothing at the call
// site.
func (rt *ReqTrace) StageSpan(stage string, idx, replica, attempt int, outcome string, start time.Time, dur time.Duration) {
	if rt == nil {
		return
	}
	rt.mu.Lock()
	rt.spans = append(rt.spans, ReqSpan{
		Kind: SpanStage, Name: stage, TSUS: rt.us(start),
		DurUS: float64(dur) / float64(time.Microsecond),
		Stage: idx, Replica: replica, Attempt: attempt, Outcome: outcome,
	})
	rt.mu.Unlock()
}

// Instant records a zero-duration event (a shed decision, a drop).
func (rt *ReqTrace) Instant(kind, name, detail string) {
	if rt == nil {
		return
	}
	now := time.Now()
	rt.mu.Lock()
	rt.spans = append(rt.spans, ReqSpan{
		Kind: kind, Name: name, TSUS: rt.us(now), Detail: detail,
	})
	rt.mu.Unlock()
}

// Spans returns a copy of the recorded spans in recording order.
func (rt *ReqTrace) Spans() []ReqSpan {
	if rt == nil {
		return nil
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]ReqSpan, len(rt.spans))
	copy(out, rt.spans)
	return out
}

// ReqTracerConfig configures a ReqTracer.
type ReqTracerConfig struct {
	// SampleRate is the head-based sampling probability in [0, 1]. The
	// decision is deterministic in the trace ID, so retries of the same
	// traceparent sample identically. A request arriving with the W3C
	// sampled flag set (or an explicit X-Trace-Id) is always sampled.
	SampleRate float64
	// Exporter receives every finished sampled trace; nil disables export.
	// Export is non-blocking: traces the exporter cannot buffer are
	// dropped and counted, never stalling the data plane.
	Exporter *SpanExporter
	// Flight receives finished traces and shed decisions for the
	// /debug/flightrecorder dump; nil disables.
	Flight *FlightRecorder
}

// ReqTracerStats is the tracer's own accounting.
type ReqTracerStats struct {
	SampleRate    float64 `json:"sampleRate"`
	Started       int64   `json:"started"`
	Sampled       int64   `json:"sampled"`
	Finished      int64   `json:"finished"`
	ExportDropped int64   `json:"exportDropped"`
}

// ReqTracer is the request-tracing subsystem handle: sampling decisions at
// the door, span collection per sampled request, and fan-out of finished
// traces to the exporter and flight recorder. A nil *ReqTracer disables
// everything at zero cost.
type ReqTracer struct {
	cfg       ReqTracerConfig
	threshold uint64

	started       atomic.Int64
	sampled       atomic.Int64
	finished      atomic.Int64
	exportDropped atomic.Int64
}

// NewReqTracer builds the tracer. Rates outside [0, 1] are clamped.
func NewReqTracer(cfg ReqTracerConfig) *ReqTracer {
	if cfg.SampleRate < 0 {
		cfg.SampleRate = 0
	}
	if cfg.SampleRate > 1 {
		cfg.SampleRate = 1
	}
	t := &ReqTracer{cfg: cfg}
	// threshold/2^64 ≈ SampleRate; rate 1 must sample every hash.
	if cfg.SampleRate >= 1 {
		t.threshold = ^uint64(0)
	} else {
		t.threshold = uint64(cfg.SampleRate * float64(1<<63) * 2)
	}
	return t
}

// Enabled reports whether the tracer is live.
func (t *ReqTracer) Enabled() bool { return t != nil }

// Flight returns the attached flight recorder (nil when absent).
func (t *ReqTracer) Flight() *FlightRecorder {
	if t == nil {
		return nil
	}
	return t.cfg.Flight
}

// Start makes the head-based sampling decision for one request. parent is
// the trace ID accepted from the wire (zero generates a fresh one); force
// bypasses the sampling rate (the W3C sampled flag or an explicit
// X-Trace-Id header). The returned ID is non-zero whenever the tracer is
// enabled — it is echoed in responses even for unsampled requests — and rt
// is non-nil only for sampled ones.
func (t *ReqTracer) Start(parent TraceID, force bool, tenant string, at time.Time) (TraceID, *ReqTrace) {
	if t == nil {
		return TraceID{}, nil
	}
	id := parent
	if id.IsZero() {
		id = newTraceID()
	}
	t.started.Add(1)
	if !force && (t.threshold == 0 || sampleHash(id) >= t.threshold) {
		return id, nil
	}
	t.sampled.Add(1)
	return id, &ReqTrace{id: id, tenant: tenant, start: at, spans: make([]ReqSpan, 0, 8)}
}

// Finish seals a sampled trace and fans it out to the flight recorder and
// exporter. outcome classifies the request ("ok", "shed:<reason>",
// "error", "canceled"). Safe on a nil tracer or nil trace.
func (t *ReqTracer) Finish(rt *ReqTrace, outcome string, sojourn, service time.Duration) {
	if t == nil || rt == nil {
		return
	}
	t.finished.Add(1)
	e := &FlightEntry{
		Kind:      FlightTrace,
		Time:      rt.start,
		TraceID:   rt.id.String(),
		Tenant:    rt.tenant,
		Outcome:   outcome,
		SojournMS: float64(sojourn) / float64(time.Millisecond),
		ServiceMS: float64(service) / float64(time.Millisecond),
		Spans:     rt.Spans(),
	}
	t.cfg.Flight.Record(e)
	if t.cfg.Exporter != nil && !t.cfg.Exporter.TryExport(e) {
		t.exportDropped.Add(1)
	}
}

// RecordShed flight-records one shed decision. Sheds are recorded whether
// or not the request was sampled: they are the events postmortems need
// most, and the ring bounds their cost.
func (t *ReqTracer) RecordShed(id TraceID, tenant, reason, detail string) {
	if t == nil || t.cfg.Flight == nil {
		return
	}
	idStr := ""
	if !id.IsZero() {
		idStr = id.String()
	}
	t.cfg.Flight.Record(&FlightEntry{
		Kind: FlightShed, Time: time.Now(), TraceID: idStr,
		Tenant: tenant, Outcome: reason, Detail: detail,
	})
}

// Stats snapshots the tracer's accounting (zero for nil).
func (t *ReqTracer) Stats() ReqTracerStats {
	if t == nil {
		return ReqTracerStats{}
	}
	return ReqTracerStats{
		SampleRate:    t.cfg.SampleRate,
		Started:       t.started.Load(),
		Sampled:       t.sampled.Load(),
		Finished:      t.finished.Load(),
		ExportDropped: t.exportDropped.Load(),
	}
}

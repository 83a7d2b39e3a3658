package ingest

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"pipemap/internal/fxrt"
	"pipemap/internal/obs"
)

// Codec adapts one application's wire format to the pipeline: it decodes a
// submit request's input into the pipeline's source data set and encodes
// the sink's output for the response. Implementations live with the
// applications (internal/apps).
type Codec interface {
	// App names the application ("ffthist", "radar", "stereo").
	App() string
	// Decode parses the request's "input" field (which may be empty: codecs
	// should synthesize a default data set) into a source data set.
	Decode(input json.RawMessage) (fxrt.DataSet, error)
	// Encode renders the pipeline's final data set as a JSON-marshalable
	// result.
	Encode(out fxrt.DataSet) (any, error)
}

// SubmitRequest is the POST /v1/submit body.
type SubmitRequest struct {
	// Tenant is the fairness and rate-limit key; empty maps to "default".
	// The X-Tenant header is an equivalent alternative.
	Tenant string `json:"tenant,omitempty"`
	// BudgetMS is the request's deadline budget in milliseconds; 0 uses the
	// plane's default, a negative budget is refused, and one past the
	// longest time.Duration saturates to it.
	BudgetMS int `json:"budget_ms,omitempty"`
	// Input is the application-specific payload, decoded by the codec.
	Input json.RawMessage `json:"input,omitempty"`
}

// SubmitResponse is the success body.
type SubmitResponse struct {
	App       string  `json:"app"`
	Result    any     `json:"result"`
	SojournMS float64 `json:"sojourn_ms"`
	ServiceMS float64 `json:"service_ms"`
	// TraceID is the request's trace ID (also in the X-Trace-Id and
	// traceparent response headers), for correlating with server-side
	// flight-recorder entries and exported spans.
	TraceID string `json:"trace_id,omitempty"`
}

// ErrorBody is the structured refusal body for shed and failed requests.
type ErrorBody struct {
	Error struct {
		Reason       string `json:"reason"`
		Detail       string `json:"detail,omitempty"`
		RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
		// TraceID correlates a refusal (e.g. a 429/503 shed) with the
		// server's flight recorder.
		TraceID string `json:"trace_id,omitempty"`
	} `json:"error"`
}

// maxSubmitBody bounds request bodies so a single oversized submission
// cannot balloon memory.
const maxSubmitBody = 8 << 20

// writeShed renders a *ShedError as its HTTP refusal.
func writeShed(w http.ResponseWriter, se *ShedError, traceID string) {
	var body ErrorBody
	body.Error.Reason = string(se.Reason)
	body.Error.Detail = se.Detail
	body.Error.TraceID = traceID
	if se.RetryAfter > 0 {
		body.Error.RetryAfterMS = se.RetryAfter.Milliseconds()
		secs := int(se.RetryAfter.Seconds() + 0.999)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(se.HTTPStatus())
	json.NewEncoder(w).Encode(body)
}

// writeError renders a non-shed failure with the given status.
func writeError(w http.ResponseWriter, status int, reason, detail, traceID string) {
	var body ErrorBody
	body.Error.Reason = reason
	body.Error.Detail = detail
	body.Error.TraceID = traceID
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

// parseTraceHeaders extracts the request's trace context: a W3C
// traceparent (whose sampled flag forces sampling) or, failing that, an
// X-Trace-Id header (which always forces — a client that bothered to send
// an ID wants the trace).
func parseTraceHeaders(r *http.Request) (parent obs.TraceID, force bool) {
	if h := r.Header.Get("traceparent"); h != "" {
		if id, sampled, ok := obs.ParseTraceparent(h); ok {
			return id, sampled
		}
	}
	if h := r.Header.Get("X-Trace-Id"); h != "" {
		if id, ok := obs.ParseTraceID(h); ok {
			return id, true
		}
	}
	return obs.TraceID{}, false
}

// SubmitHandler serves POST /v1/submit: decode via the codec, submit to
// the plane, and render the outcome — 200 with the encoded result, 400 for
// a malformed body or input or a negative budget_ms, 429/503 with a
// structured shed body, or 500 for pipeline processing failures.
// The request context cancels the wait (not the work) when the client
// disconnects.
//
// The handler owns the request trace: it accepts an inbound traceparent /
// X-Trace-Id, starts the (possibly sampled) trace, echoes the ID in the
// X-Trace-Id and traceparent response headers and in every body, records
// the response-write span, and finishes the trace after the response.
func SubmitHandler(p *Plane, codec Codec) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST only", "")
			return
		}
		var req SubmitRequest
		r.Body = http.MaxBytesReader(w, r.Body, maxSubmitBody)
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil && err.Error() != "EOF" {
			writeError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("decode body: %v", err), "")
			return
		}
		if req.BudgetMS < 0 {
			writeError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("budget_ms %d is negative", req.BudgetMS), "")
			return
		}
		budget := time.Duration(math.MaxInt64)
		if int64(req.BudgetMS) <= math.MaxInt64/int64(time.Millisecond) {
			budget = time.Duration(req.BudgetMS) * time.Millisecond
		}
		if req.Tenant == "" {
			req.Tenant = r.Header.Get("X-Tenant")
		}
		parent, force := parseTraceHeaders(r)
		id, rt := p.Tracer().Start(parent, force, req.Tenant, time.Now())
		if id.IsZero() {
			// Tracing disabled: still echo a client-supplied ID so the
			// caller's correlation keeps working.
			id = parent
		}
		idStr := ""
		if !id.IsZero() {
			idStr = id.String()
			w.Header().Set("X-Trace-Id", idStr)
			w.Header().Set("traceparent", id.Traceparent(rt != nil))
		}
		finish := func(outcome string, sojourn, service time.Duration) {
			p.Tracer().Finish(rt, outcome, sojourn, service)
		}
		ds, err := codec.Decode(req.Input)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_input", err.Error(), idStr)
			finish("bad_input", 0, 0)
			return
		}
		out, err := p.SubmitTraced(r.Context(), req.Tenant, ds, budget, id, rt)
		if err != nil {
			if se, ok := err.(*ShedError); ok {
				writeShed(w, se, idStr)
				finish("shed:"+string(se.Reason), out.Sojourn, out.Service)
				return
			}
			// Context errors: the client went away; the status is moot but
			// keep the log lines honest.
			writeError(w, http.StatusRequestTimeout, "canceled", err.Error(), idStr)
			finish("canceled", out.Sojourn, out.Service)
			return
		}
		if out.Err != nil {
			if se, ok := out.Err.(*ShedError); ok {
				writeShed(w, se, idStr)
				finish("shed:"+string(se.Reason), out.Sojourn, out.Service)
				return
			}
			writeError(w, http.StatusInternalServerError, "processing_failed", out.Err.Error(), idStr)
			finish("processing_failed", out.Sojourn, out.Service)
			return
		}
		result, err := codec.Encode(out.Output)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "encode_failed", err.Error(), idStr)
			finish("encode_failed", out.Sojourn, out.Service)
			return
		}
		tResp := time.Now()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(SubmitResponse{
			App:       codec.App(),
			Result:    result,
			SojournMS: float64(out.Sojourn) / float64(time.Millisecond),
			ServiceMS: float64(out.Service) / float64(time.Millisecond),
			TraceID:   idStr,
		})
		rt.Span(obs.SpanResponse, "response", tResp, time.Since(tResp), "ok", "")
		finish("ok", out.Sojourn, out.Service)
	})
}

// StatusHandler serves GET /v1/ingest: the plane's Stats as JSON.
func StatusHandler(p *Plane) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(p.Stats())
	})
}
